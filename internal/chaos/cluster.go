package chaos

// Multi-process topology support: the chaos tier's single-server
// scenarios fault one in-process server, but cluster scenarios need
// real processes — a SIGKILL mid cross-shard merge must lose every
// byte that was not yet durably in the WAL, which an in-process
// "kill" cannot reproduce (finalizers, shared memory and page cache
// all survive). Shards and fronts therefore run as re-exec'd copies of
// the test binary (TestMain dispatches on SLAMSHARE_PROC) and report
// their listen address on stdout for the test process to scrape.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"slamshare/internal/cluster"
)

// ShardSpec parameterizes one shard child process.
type ShardSpec struct {
	Bin     string // binary to exec (os.Args[0] in tests)
	ID      uint32
	Token   uint64
	Addr    string // listen address; "127.0.0.1:0" picks a port
	Dir     string // WAL directory (persists across restarts)
	StallMs int    // import crash-window failpoint, milliseconds
	// StartDelayMs simulates a slow restart: the child listens (and
	// reports its address) immediately but kills every accepted
	// connection for this long before starting the real server.
	StartDelayMs int
}

// FrontSpec parameterizes one front-router child process. Replicas
// share the Token and the Shards view; each gets its own FrontID.
type FrontSpec struct {
	Bin            string
	ID             uint32
	Token          uint64
	Addr           string   // device listen address; "127.0.0.1:0" picks a port
	Shards         []string // shard address table, identical across replicas
	PartMin        float64  // partition edges (N = len(Shards))
	PartMax        float64
	PartHysteresis float64
	HandoffStallMs int  // mid-handoff failpoint, milliseconds
	Debug          bool // serve /debug/vars (front gauges) on a private port
}

// Proc is a shard or front running as a real child process. Killing
// it is a true SIGKILL: no deferred cleanup, no flushes — for a shard,
// the WAL on disk is all that survives, which is the point of the tier.
type Proc struct {
	Addr      string
	DebugAddr string // empty unless a front spec asked for debug serving
	cmd       *exec.Cmd
}

// SpawnShard starts a shard child process and waits for its LISTENING
// line.
func SpawnShard(spec ShardSpec) (*Proc, error) {
	return spawn(fmt.Sprintf("shard %d", spec.ID), spec.Bin,
		cluster.EnvProc+"=shard",
		fmt.Sprintf("%s=%s", cluster.EnvAddr, spec.Addr),
		fmt.Sprintf("%s=%d", cluster.EnvShardID, spec.ID),
		fmt.Sprintf("%s=%d", cluster.EnvToken, spec.Token),
		fmt.Sprintf("%s=%s", cluster.EnvDir, spec.Dir),
		fmt.Sprintf("%s=%d", cluster.EnvImportStall, spec.StallMs),
		fmt.Sprintf("%s=%d", cluster.EnvStartDelay, spec.StartDelayMs),
	)
}

// SpawnFront starts a front child process and waits for its LISTENING
// (and, when debug-enabled, DEBUG) lines.
func SpawnFront(spec FrontSpec) (*Proc, error) {
	env := []string{
		cluster.EnvProc + "=front",
		fmt.Sprintf("%s=%s", cluster.EnvAddr, spec.Addr),
		fmt.Sprintf("%s=%d", cluster.EnvFrontID, spec.ID),
		fmt.Sprintf("%s=%d", cluster.EnvToken, spec.Token),
		fmt.Sprintf("%s=%s", cluster.EnvShards, strings.Join(spec.Shards, ",")),
		fmt.Sprintf("%s=%g,%g,%g", cluster.EnvPartEdges,
			spec.PartMin, spec.PartMax, spec.PartHysteresis),
		fmt.Sprintf("%s=%d", cluster.EnvHandoffStall, spec.HandoffStallMs),
	}
	if spec.Debug {
		env = append(env, fmt.Sprintf("%s=127.0.0.1:0", cluster.EnvDebugAddr))
	}
	return spawn(fmt.Sprintf("front %d", spec.ID), spec.Bin, env...)
}

// spawn starts bin, the child named what, with env added and waits for
// it to report its address. Respawns after a kill reuse the concrete
// address, so fronts and peers reconnect without reconfiguration; the
// retries absorb the window where the killed process's port is still
// being released.
func spawn(what, bin string, env ...string) (*Proc, error) {
	var err error
	for attempt := 0; attempt < 15; attempt++ {
		var p *Proc
		if p, err = trySpawn(bin, env); err == nil {
			return p, nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return nil, fmt.Errorf("chaos: %s did not come up: %w", what, err)
}

func trySpawn(bin string, env []string) (*Proc, error) {
	cmd := exec.Command(bin)
	cmd.Env = append(os.Environ(), env...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	repCh := make(chan Proc, 1)
	go func() {
		var rep Proc
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "DEBUG "); ok {
				rep.DebugAddr = a
			} else if a, ok := strings.CutPrefix(sc.Text(), "LISTENING "); ok {
				rep.Addr = a
				break
			}
		}
		repCh <- rep // Addr empty when stdout closed before listening
	}()
	select {
	case rep := <-repCh:
		if rep.Addr != "" {
			rep.cmd = cmd
			return &rep, nil
		}
		err = errors.New("child exited before listening")
	case <-time.After(30 * time.Second):
		err = errors.New("child did not report listening")
	}
	cmd.Process.Kill()
	cmd.Wait()
	return nil, err
}

// Kill SIGKILLs the process and reaps it.
func (p *Proc) Kill() {
	if p == nil || p.cmd == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
}
