//go:build race

package prep

// raceEnabled lets allocation-count gates skip under -race, where the
// instrumentation allocates and sync.Pool drops items at random.
const raceEnabled = true
