//go:build !race

package prep

const raceEnabled = false
