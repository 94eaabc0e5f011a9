package server_test

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"slamshare/internal/cluster"
	"slamshare/internal/server"
)

// updateSurface rewrites testdata/config_surface.txt. Do it in the PR
// that adds or removes an option, so the diff of that file is the list
// of knobs the PR changes.
var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/config_surface.txt")

const surfacePath = "testdata/config_surface.txt"

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
	body := strings.Join(got, "\n") + "\n"
	if *updateSurface {
		if err := os.WriteFile(surfacePath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfacePath)
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
			t.Errorf("new option, not in %s: %s", surfacePath, l)
		}
		delete(have, l)
	}
	for l := range have {
		t.Errorf("option in %s no longer exists: %s", surfacePath, l)
	}
	if !t.Failed() {
		t.Errorf("%s lists the options in a different order than the structs declare them", surfacePath)
	}
	t.Log("if the change is intended, re-record with -update-surface and update DESIGN.md's Tunables table")
}
