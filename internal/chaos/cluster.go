package chaos

// Multi-process topology support: the chaos tier's single-server
// scenarios fault one in-process server, but cluster scenarios need
// real processes — a SIGKILL mid cross-shard merge must lose every
// byte that was not yet durably in the WAL, which an in-process
// "kill" cannot reproduce (finalizers, shared memory and page cache
// all survive). Shards and fronts therefore run as re-exec'd copies of
// the test binary: TestMain dispatches on cluster.EnvProc into
// cluster.ServerMain or cluster.FrontMain — the slamshare-server and
// slamshare-front programs, flags and log lines included — and the
// harness reads the listen addresses from the child's start-up log.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"regexp"
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
	// StartDelayMs simulates a slow restart: the harness holds Addr
	// for this long, closing every connection it accepts, before it
	// starts the shard on it.
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

// The start-up log lines that carry a child's addresses, as the
// benchmark harness (bench/procs.go) reads them.
var (
	listenRe = regexp.MustCompile(`(?:listening on|slamshare-front on) (127\.0\.0\.1:\d+)`)
	debugRe  = regexp.MustCompile(`debug endpoint on http://(127\.0\.0\.1:\d+)/`)
)

// SpawnShard starts a shard child process and waits until it listens.
// Its WAL is journal-only: recovery replays it from the last (absent)
// checkpoint, the hardest recovery path.
func SpawnShard(spec ShardSpec) (*Proc, error) {
	what := fmt.Sprintf("shard %d", spec.ID)
	if spec.StartDelayMs > 0 {
		if err := holdAddr(spec.Addr, time.Duration(spec.StartDelayMs)*time.Millisecond); err != nil {
			return nil, fmt.Errorf("chaos: %s: %w", what, err)
		}
	}
	return spawn(what, spec.Bin, "shard",
		"-addr", spec.Addr,
		"-shard-id", fmt.Sprint(spec.ID),
		"-shard-token", fmt.Sprint(spec.Token),
		"-checkpoint-dir", spec.Dir,
		"-checkpoint-every=-1ns",
		"-import-stall", fmt.Sprintf("%dms", spec.StallMs),
	)
}

// SpawnFront starts a front child process and waits until it listens.
func SpawnFront(spec FrontSpec) (*Proc, error) {
	args := []string{
		"-addr", spec.Addr,
		"-shards", strings.Join(spec.Shards, ","),
		"-token", fmt.Sprint(spec.Token),
		"-front-id", fmt.Sprint(spec.ID),
		"-min-x", fmt.Sprint(spec.PartMin),
		"-max-x", fmt.Sprint(spec.PartMax),
		"-hysteresis", fmt.Sprint(spec.PartHysteresis),
		"-handoff-stall", fmt.Sprintf("%dms", spec.HandoffStallMs),
	}
	if spec.Debug {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	return spawn(fmt.Sprintf("front %d", spec.ID), spec.Bin, "front", args...)
}

// holdAddr stands in for a shard replaying a long WAL on restart: for
// d it listens on addr and closes every connection it accepts — what a
// front redialing a recovering shard sees — then frees the address.
// The retries absorb the window where a killed process's port is still
// being released.
func holdAddr(addr string, d time.Duration) error {
	var (
		ln  net.Listener
		err error
	)
	for attempt := 0; attempt < 15; attempt++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err != nil {
		return err
	}
	defer ln.Close()
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(d))
	for {
		c, err := ln.Accept()
		if err != nil {
			return nil // the deadline: the window is over
		}
		c.Close()
	}
}

// spawn starts bin as the child named what, running proc's main with
// args, and waits for it to report its address. Respawns after a kill
// reuse the concrete address, so fronts and peers reconnect without
// reconfiguration; the retries absorb the window where the killed
// process's port is still being released.
func spawn(what, bin, proc string, args ...string) (*Proc, error) {
	var err error
	for attempt := 0; attempt < 15; attempt++ {
		var p *Proc
		if p, err = trySpawn(what, bin, proc, args); err == nil {
			return p, nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return nil, fmt.Errorf("chaos: %s did not come up: %w", what, err)
}

func trySpawn(what, bin, proc string, args []string) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), cluster.EnvProc+"="+proc)
	logR, logW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logW
	err = cmd.Start()
	logW.Close()
	if err != nil {
		logR.Close()
		return nil, err
	}
	// The child's log is echoed to ours, prefixed with its name, for as
	// long as it lives; its start-up lines carry its addresses.
	repCh := make(chan Proc, 1)
	go func() {
		defer logR.Close()
		var rep Proc
		reported := false
		rd := bufio.NewReader(logR)
		for {
			line, err := rd.ReadString('\n')
			if line != "" {
				fmt.Fprintf(os.Stderr, "%s: %s", what, line)
			}
			if !reported {
				if m := debugRe.FindStringSubmatch(line); m != nil {
					rep.DebugAddr = m[1]
				}
				if m := listenRe.FindStringSubmatch(line); m != nil {
					rep.Addr = m[1]
				}
				if reported = rep.Addr != "" || err != nil; reported {
					repCh <- rep // Addr empty when the log closed before listening
				}
			}
			if err != nil {
				return
			}
		}
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
