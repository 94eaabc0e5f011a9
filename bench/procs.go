package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds the binaries under test, built from the checkout the
// benchmark runs in.
const buildDir = ".bench_build/bin"

// buildBinaries compiles the two programs under test and returns how
// long that took. It is the one-off cost printed as build_s, outside
// setup_s.
func buildBinaries() (time.Duration, error) {
	t0 := time.Now()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return 0, err
	}
	cmd := exec.Command("go", "build", "-o", buildDir+"/", "./cmd/slamshare-server", "./cmd/slamshare-front")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build of the programs under test: %w", err)
	}
	return time.Since(t0), nil
}

// child is one program under test running as a child process. Its log
// goes to a file, so no goroutine is needed to drain it, and the listen
// addresses it chose are read back from that file.
type child struct {
	name  string
	cmd   *exec.Cmd
	addr  string // device-facing listen address
	debug string // observability listen address
}

var (
	listenRe = regexp.MustCompile(`(?:listening on|slamshare-front on) (127\.0\.0\.1:\d+)`)
	debugRe  = regexp.MustCompile(`debug endpoint on http://(127\.0\.0\.1:\d+)/`)
)

// spawn starts bin with args, logging to dir/name.log, and waits until
// it reports its listen addresses. Every child listens on port 0 so
// concurrent benchmark runs cannot collide.
func spawn(dir, name, bin string, args ...string) (*child, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args = append([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(filepath.Join(buildDir, bin), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(logPath)
		if err != nil {
			break
		}
		if m := debugRe.FindSubmatch(b); m != nil {
			c.debug = string(m[1])
		}
		if m := listenRe.FindSubmatch(b); m != nil {
			c.addr = string(m[1])
			return c, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.stop()
	b, _ := os.ReadFile(logPath)
	return nil, fmt.Errorf("%s did not report a listen address; log:\n%s", name, b)
}

// stop kills the child and waits until it has ended.
func (c *child) stop() {
	if c == nil || c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Kill() // already exited is fine
	_ = c.cmd.Wait()         // the kill makes Wait report an error by design
}

// cpu returns the child's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks; all threads, living and dead).
func (c *child) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// parseProcStat extracts utime+stime from a /proc/<pid>/stat line. The
// command name is in parentheses and may hold spaces, so fields are
// counted from the last ')'.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", line)
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", line)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in %q", line)
	}
	const userHz = 100 // fixed by the Linux ABI for /proc
	return time.Duration(ut+st) * time.Second / userHz, nil
}

// debugVars is the part of a child's /debug/vars the run-level checks
// read.
type debugVars struct {
	Counters   map[string]int64   `json:"counters"`
	Vars       map[string]float64 `json:"vars"`
	Histograms map[string]struct {
		Count int64 `json:"count"`
	} `json:"histograms"`
}

// vars scrapes the child's /debug/vars.
func (c *child) vars() (*debugVars, error) {
	if c.debug == "" {
		return nil, fmt.Errorf("%s has no debug endpoint", c.name)
	}
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + c.debug + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out debugVars
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s /debug/vars: %w", c.name, err)
	}
	return &out, nil
}

// selfCPU is the generator's own user+system CPU time (RUSAGE_SELF).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
