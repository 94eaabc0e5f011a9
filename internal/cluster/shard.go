package cluster

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"slamshare/internal/obs"
	"slamshare/internal/persist"
	"slamshare/internal/server"
)

// ShardOptions configure one shard server process.
type ShardOptions struct {
	// ID is the shard's index in the front's shard table.
	ID uint32
	// Token authenticates cluster peers (front, sibling shards, admin
	// probes) on the shard's listener.
	Token uint64
	// Dir, when non-empty, enables WAL persistence rooted there —
	// required for crash/recovery scenarios.
	Dir string
	// ImportStall is the crash-window failpoint passed through to
	// server.ShardConfig (test harnesses only).
	ImportStall time.Duration
}

// HalfResConfig is the pipeline tuning the chaos tier and cluster
// shards share: half-resolution frames need looser merge gates and a
// lower lost line, and churn scenarios need the map to grow in tens of
// rounds, not hundreds. urban adds the vehicular tracking profile
// city-grid routes need: a wider keyframe-insertion window and a lower
// lost line still, so fast forward motion cannot decay straight past
// both thresholds.
func HalfResConfig(urban bool) server.Config {
	cfg := server.DefaultConfig()
	cfg.MergeAfterKFs = 4
	cfg.TrackCfg.KFMinInterval = 2
	cfg.TrackCfg.MinInliers = 12
	cfg.MergeCfg.MinMatches = 12
	cfg.MergeCfg.InlierTol = 0.5
	cfg.MergeCfg.MaxRMSE = 0.3
	if urban {
		cfg.TrackCfg.KFTrackedRatio = 0.85
		cfg.TrackCfg.MinInliers = 10
	}
	return cfg
}

// ShardConfig builds the server configuration for a cluster shard:
// HalfResConfig plus the shard identity. City-grid routes are what
// cluster scenarios drive, so the urban profile is unconditional here.
func ShardConfig(opts ShardOptions) server.Config {
	cfg := HalfResConfig(true)
	cfg.Shard = server.ShardConfig{
		ID:          opts.ID,
		Token:       opts.Token,
		ImportStall: opts.ImportStall,
	}
	if opts.Dir != "" {
		// Journal-only persistence: recovery replays the WAL from the
		// last (absent) checkpoint, the hardest recovery path.
		cfg.Persist = persist.Options{Dir: opts.Dir, CheckpointEvery: -1}
	}
	return cfg
}

// NewShard builds and starts a shard server on the given listener.
func NewShard(opts ShardOptions, ln net.Listener) (*server.Server, error) {
	srv, err := server.New(ShardConfig(opts))
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	return srv, nil
}

// Environment variables the multi-process harness and slamshare-server
// use to parameterize a shard or front child process.
const (
	EnvProc        = "SLAMSHARE_PROC"
	EnvAddr        = "SLAMSHARE_ADDR"
	EnvShardID     = "SLAMSHARE_SHARD_ID"
	EnvToken       = "SLAMSHARE_TOKEN"
	EnvDir         = "SLAMSHARE_DIR"
	EnvImportStall = "SLAMSHARE_IMPORT_STALL"
	// EnvStartDelay (ms) makes ShardEnvMain listen and print its
	// address immediately but kill every accepted connection for the
	// delay window before starting the real server — a stand-in for a
	// shard doing a slow WAL replay on restart.
	EnvStartDelay = "SLAMSHARE_START_DELAY"
	// Front child parameters: the comma-separated shard address table,
	// the front ID, the partition edges, the handoff-stall failpoint,
	// and the debug (obs.Handler) listen address.
	EnvShards       = "SLAMSHARE_SHARDS"
	EnvFrontID      = "SLAMSHARE_FRONT_ID"
	EnvPartEdges    = "SLAMSHARE_PART_EDGES"
	EnvHandoffStall = "SLAMSHARE_HANDOFF_STALL"
	EnvDebugAddr    = "SLAMSHARE_DEBUG_ADDR"
)

// ShardEnvMain runs a shard server parameterized entirely by
// environment variables and blocks forever. The chaos harness re-execs
// the (race-instrumented) test binary with SLAMSHARE_PROC=shard to get
// real multi-process topologies; the harness learns the actual listen
// address from the "LISTENING <addr>" line on stdout.
func ShardEnvMain() {
	addr := os.Getenv(EnvAddr)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	id, _ := strconv.ParseUint(os.Getenv(EnvShardID), 10, 32)
	token, _ := strconv.ParseUint(os.Getenv(EnvToken), 10, 64)
	stallMs, _ := strconv.ParseInt(os.Getenv(EnvImportStall), 10, 64)
	delayMs, _ := strconv.ParseInt(os.Getenv(EnvStartDelay), 10, 64)
	opts := ShardOptions{
		ID:          uint32(id),
		Token:       token,
		Dir:         os.Getenv(EnvDir),
		ImportStall: time.Duration(stallMs) * time.Millisecond,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard %d: listen %s: %v\n", opts.ID, addr, err)
		os.Exit(1)
	}
	// The harness scrapes this exact line; keep the format stable.
	fmt.Printf("LISTENING %s\n", ln.Addr().String())
	os.Stdout.Sync()
	if delayMs > 0 {
		// Slow-restart failpoint: the port is open (the address is
		// already published) but the server is "replaying its WAL" —
		// every connection accepted in the window dies immediately,
		// which is exactly what a front's dial-then-dead reconnect
		// sees against a recovering shard.
		deadline := time.Now().Add(time.Duration(delayMs) * time.Millisecond)
		for time.Now().Before(deadline) {
			ln.(*net.TCPListener).SetDeadline(deadline)
			c, err := ln.Accept()
			if err != nil {
				break
			}
			c.Close()
		}
		ln.(*net.TCPListener).SetDeadline(time.Time{})
	}
	if _, err := NewShard(opts, ln); err != nil {
		fmt.Fprintf(os.Stderr, "shard %d: %v\n", opts.ID, err)
		os.Exit(1)
	}
	select {} // killed by the parent (SIGKILL is the point of the tier)
}

// FrontEnvMain runs a front router parameterized entirely by
// environment variables and blocks forever — the front-failover chaos
// tier re-execs the test binary with SLAMSHARE_PROC=front to get a
// real replicated-front topology it can SIGKILL. EnvShards is the
// comma-separated shard address table (identical across replicas),
// EnvPartEdges is "min,max,hysteresis" for the spatial partition, and
// EnvDebugAddr, when set, serves /debug/vars with the front gauges;
// its actual address is printed as "DEBUG <addr>" before the
// "LISTENING <addr>" line the harness scrapes.
func FrontEnvMain() {
	addr := os.Getenv(EnvAddr)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	id, _ := strconv.ParseUint(os.Getenv(EnvFrontID), 10, 32)
	token, _ := strconv.ParseUint(os.Getenv(EnvToken), 10, 64)
	stallMs, _ := strconv.ParseInt(os.Getenv(EnvHandoffStall), 10, 64)
	shards := strings.Split(os.Getenv(EnvShards), ",")
	cfg := FrontConfig{
		Shards:       shards,
		Token:        token,
		FrontID:      uint32(id),
		HandoffStall: time.Duration(stallMs) * time.Millisecond,
		Part:         Partition{N: len(shards)},
	}
	if edges := os.Getenv(EnvPartEdges); edges != "" {
		parts := strings.Split(edges, ",")
		if len(parts) == 3 {
			cfg.Part.Min, _ = strconv.ParseFloat(parts[0], 64)
			cfg.Part.Max, _ = strconv.ParseFloat(parts[1], 64)
			cfg.Part.Hysteresis, _ = strconv.ParseFloat(parts[2], 64)
		}
	}
	f := NewFront(cfg)
	if dbgAddr := os.Getenv(EnvDebugAddr); dbgAddr != "" {
		reg := obs.NewRegistry()
		f.RegisterDebug(reg)
		dln, err := net.Listen("tcp", dbgAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "front %d: debug listen %s: %v\n", id, dbgAddr, err)
			os.Exit(1)
		}
		fmt.Printf("DEBUG %s\n", dln.Addr().String())
		go http.Serve(dln, obs.Handler(obs.NewTracer(reg, obs.DefaultRingSize)))
	}
	if err := f.ListenAndServe(addr); err != nil {
		fmt.Fprintf(os.Stderr, "front %d: %v\n", id, err)
		os.Exit(1)
	}
}
