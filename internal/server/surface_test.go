package server_test

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"slamshare/internal/cluster"
	"slamshare/internal/server"
)

// updateSurface rewrites testdata/config_surface.txt and
// testdata/flag_surface.txt. Do it in the change that adds or removes
// an option or a flag, so the diff of those files is the list of knobs
// the change touches.
var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/config_surface.txt and testdata/flag_surface.txt")

const (
	surfacePath = "testdata/config_surface.txt"
	flagsPath   = "testdata/flag_surface.txt"
)

// surfaceLeaves appends every independently settable value reachable
// from typ as "path type" lines: struct fields are descended into,
// everything else (scalars, durations, pointers, funcs, slices,
// interfaces) is a leaf.
func surfaceLeaves(path string, typ reflect.Type, out []string) []string {
	if typ.Kind() != reflect.Struct {
		return append(out, path+" "+typ.String())
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		out = surfaceLeaves(path+"."+f.Name, f.Type, out)
	}
	return out
}

// TestConfigSurface pins the option surface of a shard server and a
// front to a reviewed file: every leaf of server.Config and
// cluster.FrontConfig, one per line. DESIGN.md's Tunables table has a
// row for each.
func TestConfigSurface(t *testing.T) {
	got := surfaceLeaves("server.Config", reflect.TypeOf(server.Config{}), nil)
	nServer := len(got)
	got = surfaceLeaves("cluster.FrontConfig", reflect.TypeOf(cluster.FrontConfig{}), got)
	t.Logf("%d leaves under server.Config, %d under cluster.FrontConfig", nServer, len(got)-nServer)
	checkSurface(t, surfacePath, "option", got)
}

// TestFlagSurface pins the flags of slamshare-server and
// slamshare-front, name and default, to a reviewed file: bench/ and
// the README start the programs with them, so one cannot vanish or
// change its default unseen. The flags are the ones the programs'
// mains register, asked for -h.
func TestFlagSurface(t *testing.T) {
	var got []string
	record := func(prog string, run func(*flag.FlagSet) error) {
		fs := flag.NewFlagSet(prog, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := run(fs); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h returned %v, want flag.ErrHelp", prog, err)
		}
		fs.VisitAll(func(f *flag.Flag) {
			got = append(got, fmt.Sprintf("%s -%s %q", prog, f.Name, f.DefValue))
		})
	}
	record("slamshare-server", func(fs *flag.FlagSet) error {
		cfg := server.DefaultConfig()
		return cluster.ServerMain(fs, []string{"-h"}, &cfg)
	})
	record("slamshare-front", func(fs *flag.FlagSet) error {
		return cluster.FrontMain(fs, []string{"-h"}, &cluster.FrontConfig{})
	})
	checkSurface(t, flagsPath, "flag", got)
}

// checkSurface compares got, one entry per line, with the reviewed
// file at path, or rewrites the file under -update-surface.
func checkSurface(t *testing.T, path, what string, got []string) {
	t.Helper()
	body := strings.Join(got, "\n") + "\n"
	if *updateSurface {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("surface file: %v (record it with -update-surface)", err)
	}
	if string(want) == body {
		return
	}
	have := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		have[l] = true
	}
	for _, l := range got {
		if !have[l] {
			t.Errorf("new %s, not in %s: %s", what, path, l)
		}
		delete(have, l)
	}
	for l := range have {
		t.Errorf("%s in %s no longer exists: %s", what, path, l)
	}
	if !t.Failed() {
		t.Errorf("%s lists the %ss in a different order", path, what)
	}
	t.Log("if the change is intended, re-record with -update-surface and update DESIGN.md's Tunables table")
}
