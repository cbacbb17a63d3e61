package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"klocal/internal/cluster"
	"klocal/internal/graph"
	"klocal/internal/serve"
)

// clusterOptions collects the -shard/-join flag set.
type clusterOptions struct {
	addr        string
	advertise   string
	shard       string // "i/n"
	join        []string
	algo        string
	k           int
	spec        serve.GraphSpec
	incarnation int64
	hello       time.Duration
	deadAfter   time.Duration
	peerDL      time.Duration
	hopBudget   int
	reqTimeout  time.Duration
	drain       time.Duration
}

// parseShard splits "i/n" into (index, shards).
func parseShard(s string) (int, int, error) {
	parts := strings.SplitN(s, "/", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-shard wants i/n, got %q", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("-shard index: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("-shard count: %w", err)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-shard %q out of range", s)
	}
	return i, n, nil
}

// buildMember assembles one cluster member from the shared GraphSpec:
// the topology is opened as a store (generated in memory, or an mmap'd
// CSR file for kind "file") only to carve out this shard's a-priori
// knowledge — owned vertices and their adjacency rows — and is released
// before the member starts; everything else the member learns over the
// wire. With a .csr file this means a member touches only its owned
// pages of a million-node topology.
func buildMember(opt clusterOptions, tr cluster.Transport) (*cluster.Member, error) {
	idx, shards, err := parseShard(opt.shard)
	if err != nil {
		return nil, err
	}
	st, err := opt.spec.BuildStore()
	if err != nil {
		return nil, err
	}
	defer func() {
		if c, ok := st.(io.Closer); ok {
			c.Close()
		}
	}()
	alg, err := serve.AlgorithmByName(opt.algo)
	if err != nil {
		return nil, err
	}
	k := opt.k
	if k <= 0 {
		k = alg.MinK(st.N())
	}
	vs := make([]graph.Vertex, 0, st.N())
	st.EachVertex(func(v graph.Vertex) bool {
		vs = append(vs, v)
		return true
	})
	asn, err := cluster.NewAssignment(vs, shards)
	if err != nil {
		return nil, err
	}
	adj := make(map[graph.Vertex][]graph.Vertex)
	for _, v := range asn.Owned(idx) {
		nbrs := make([]graph.Vertex, 0, st.Deg(v))
		st.EachAdj(v, func(w graph.Vertex) bool {
			nbrs = append(nbrs, w)
			return true
		})
		adj[v] = nbrs
	}
	cfg := cluster.Config{
		Index:          idx,
		K:              k,
		Alg:            alg,
		Incarnation:    opt.incarnation,
		SelfAddr:       opt.advertise,
		Seeds:          opt.join,
		HelloInterval:  opt.hello,
		DeadAfter:      opt.deadAfter,
		PeerDeadline:   opt.peerDL,
		HopBudget:      opt.hopBudget,
		RequestTimeout: opt.reqTimeout,
	}
	return cluster.NewMember(cfg, asn, adj, tr)
}

// runCluster is klocald's -join/-shard mode: one member process serving
// its shard until SIGTERM/SIGINT, then a graceful stop and the final
// report (fault counters included).
func runCluster(opt clusterOptions) error {
	if opt.advertise == "" {
		opt.advertise = opt.addr
	}
	if opt.incarnation <= 0 {
		// Seconds since the epoch: monotone across restarts of the same
		// shard, so a rejoin supersedes the pre-crash lifetime without
		// stable storage.
		opt.incarnation = time.Now().Unix()
	}
	m, err := buildMember(opt, cluster.NewHTTPTransport(nil))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(m.Handler())
	fmt.Fprintf(os.Stderr, "klocald: cluster member %d listening on %s (shard %s, %s, seeds %v)\n",
		m.Index(), ln.Addr(), opt.shard, opt.spec, opt.join)
	m.Start()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	//klocal:allow exits when Serve returns on shutdown; errc is buffered so the send never blocks
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "klocald: cluster member stopping")
	shutCtx, cancel := context.WithTimeout(context.Background(), opt.drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "klocald: listener shutdown: %v\n", err)
	}
	m.Stop()
	m.FinalReport().WriteText(os.Stderr)
	return nil
}

// smokeMember is one in-process member of the cluster smoke topology.
type smokeMember struct {
	m  *cluster.Member
	ln net.Listener
	hs *http.Server
}

func startSmokeMember(opt clusterOptions) (*smokeMember, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opt.addr = ln.Addr().String()
	if opt.advertise == "" {
		opt.advertise = opt.addr
	}
	m, err := buildMember(opt, cluster.NewHTTPTransport(nil))
	if err != nil {
		ln.Close()
		return nil, err
	}
	sm := &smokeMember{m: m, ln: ln, hs: newHTTPServer(m.Handler())}
	//klocal:allow smoke-member server; kill() closes the listener, unblocking Serve
	go sm.hs.Serve(ln)
	m.Start()
	return sm, nil
}

func (sm *smokeMember) kill() {
	sm.hs.Close()
	sm.m.Stop()
}

// runClusterSmoke is the dependency-free `make cluster-smoke` body:
// boot 3 members over real loopback TCP, wait for G_k(u) discovery to
// cover the vertex space, route across shards through HTTP, kill one
// member, assert the typed fast failure and the route-around recovery,
// rejoin, and assert full recovery — all well under 30s.
func runClusterSmoke() error {
	const (
		shards = 3
		size   = 36 // cycle; shard i owns [12i, 12i+12)
		k      = 16 // ≥ alg2's threshold before (T(36)=13) and after (24-path: T(24)=9) the crash
	)
	opt := clusterOptions{
		spec:       serve.GraphSpec{Kind: "cycle", Size: size},
		algo:       "alg2",
		k:          k,
		hello:      50 * time.Millisecond,
		deadAfter:  400 * time.Millisecond,
		peerDL:     500 * time.Millisecond,
		reqTimeout: 3 * time.Second,
		drain:      time.Second,
	}
	var members []*smokeMember
	defer func() {
		for _, sm := range members {
			if sm != nil {
				sm.kill()
			}
		}
	}()
	// Boot with every member knowing only member 0's address; gossip
	// must spread the rest.
	var addrs []string
	for i := 0; i < shards; i++ {
		o := opt
		o.shard = fmt.Sprintf("%d/%d", i, shards)
		o.incarnation = 1
		if len(addrs) > 0 {
			o.join = []string{addrs[0]}
		}
		sm, err := startSmokeMember(o)
		if err != nil {
			return err
		}
		members = append(members, sm)
		addrs = append(addrs, sm.ln.Addr().String())
	}

	waitFor := func(what string, timeout time.Duration, cond func() bool) error {
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if cond() {
				return nil
			}
			time.Sleep(20 * time.Millisecond)
		}
		return fmt.Errorf("cluster-smoke: timed out waiting for %s", what)
	}
	if err := waitFor("discovery", 10*time.Second, func() bool {
		for _, sm := range members {
			if !sm.m.Ready() {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	fmt.Printf("cluster-smoke: 3 members ready on %v\n", addrs)

	routeVia := func(addr string, s, t int) (*cluster.RouteReply, error) {
		body, _ := json.Marshal(cluster.RouteRequest{S: s, T: t, Trace: true})
		resp, err := http.Post("http://"+addr+"/route", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var rep cluster.RouteReply
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("route %d->%d: %s: %s", s, t, resp.Status, raw)
		}
		return &rep, nil
	}

	// Cross-shard delivery through each entry member.
	for i, sm := range members {
		_ = sm
		rep, err := routeVia(addrs[i], 2, 30)
		if err != nil {
			return err
		}
		if !rep.Delivered {
			return fmt.Errorf("cluster-smoke: route 2->30 via member %d failed: %s", i, rep.Err)
		}
	}
	fmt.Println("cluster-smoke: cross-shard routing ok via every member")

	// Kill member 1 (owns 12..23) and expect a typed fast failure for a
	// destination inside the dead shard.
	members[1].kill()
	rep, err := routeVia(addrs[0], 2, 18)
	if err != nil {
		return err
	}
	if rep.Delivered {
		return fmt.Errorf("cluster-smoke: route into the dead shard unexpectedly delivered")
	}
	if rep.ErrKind == "" {
		return fmt.Errorf("cluster-smoke: dead-shard failure not typed: %s", rep.Err)
	}
	fmt.Printf("cluster-smoke: dead-shard route failed fast and typed (%s)\n", rep.ErrKind)

	// Wait for both survivors to tombstone the dead shard, then the
	// route between the surviving shards must go the long way around.
	if err := waitFor("tombstones", 10*time.Second, func() bool {
		return members[0].m.Stats().Tombstones == 12 && members[2].m.Stats().Tombstones == 12
	}); err != nil {
		return err
	}
	rep, err = routeVia(addrs[2], 10, 25)
	if err != nil {
		return err
	}
	if !rep.Delivered {
		return fmt.Errorf("cluster-smoke: post-tombstone route 10->25 failed: %s (%s)", rep.Err, rep.ErrKind)
	}
	fmt.Printf("cluster-smoke: survivors re-routed 10->25 around the dead shard in %d hops\n", rep.Hops)

	// Rejoin shard 1 under a fresh incarnation on a new port and expect
	// full recovery, including delivery into the rejoined shard.
	o := opt
	o.shard = fmt.Sprintf("1/%d", shards)
	o.incarnation = 2
	o.join = []string{addrs[0], addrs[2]}
	sm, err := startSmokeMember(o)
	if err != nil {
		return err
	}
	members[1] = sm
	if err := waitFor("rejoin", 10*time.Second, func() bool {
		for _, sm := range members {
			st := sm.m.Stats()
			if !st.Ready || st.Tombstones != 0 {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	if err := waitFor("post-rejoin delivery", 10*time.Second, func() bool {
		rep, err := routeVia(addrs[0], 2, 18)
		return err == nil && rep.Delivered
	}); err != nil {
		return err
	}
	fmt.Println("cluster-smoke: shard 1 rejoined, delivery into it recovered")
	return nil
}
