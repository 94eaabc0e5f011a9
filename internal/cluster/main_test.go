package cluster

import (
	"bufio"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"log"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
	"time"

	"slamshare/internal/server"
)

// TestMain doubles as the child entrypoint of TestMainsReportAddresses:
// with EnvProc set, the test binary runs the slamshare-server or
// slamshare-front main, as those binaries do, instead of the tests.
func TestMain(m *testing.M) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	switch os.Getenv(EnvProc) {
	case "server":
		cfg := server.DefaultConfig()
		log.Fatal(ServerMain(fs, os.Args[1:], &cfg))
	case "front":
		log.Fatal(FrontMain(fs, os.Args[1:], &FrontConfig{}))
	}
	os.Exit(m.Run())
}

// TestMainsReportAddresses starts each main on port 0, as the benchmark
// harness starts the programs, and checks that the lines it logs carry
// its listen and debug addresses in the form bench/procs.go reads them,
// and that both addresses accept connections.
func TestMainsReportAddresses(t *testing.T) {
	listenRe, debugRe := benchAddrRegexps(t)
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		proc string
		args []string
	}{
		{"server", nil},
		{"front", []string{"-shards", "127.0.0.1:1"}},
	} {
		t.Run(c.proc, func(t *testing.T) {
			cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, c.args...)...)
			cmd.Env = append(os.Environ(), EnvProc+"="+c.proc)
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				cmd.Process.Kill()
				cmd.Wait()
			}()
			// A child that never logs its address is killed, which ends
			// the scan below.
			defer time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() }).Stop()
			var addr, debug string
			var lines []string
			for sc := bufio.NewScanner(stderr); addr == "" && sc.Scan(); {
				lines = append(lines, sc.Text())
				if m := debugRe.FindStringSubmatch(sc.Text()); m != nil {
					debug = m[1]
				}
				if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
					addr = m[1]
				}
			}
			if addr == "" || debug == "" {
				t.Fatalf("listen address %q, debug address %q from log %q", addr, debug, lines)
			}
			for _, a := range []string{addr, debug} {
				conn, err := net.Dial("tcp", a)
				if err != nil {
					t.Fatalf("logged address %s: %v", a, err)
				}
				conn.Close()
			}
		})
	}
}

// benchAddrRegexps reads the two regexps the benchmark harness finds a
// child's addresses with out of bench/procs.go, so this test follows
// them if they change.
func benchAddrRegexps(t *testing.T) (listen, debug *regexp.Regexp) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../../bench/procs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := make(map[string]*regexp.Regexp)
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			call, ok := vs.Values[i].(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				continue
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				expr, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				res[name.Name] = regexp.MustCompile(expr)
			}
		}
		return false
	})
	listen, debug = res["listenRe"], res["debugRe"]
	if listen == nil || debug == nil {
		t.Fatal("bench/procs.go no longer declares listenRe and debugRe")
	}
	return listen, debug
}
