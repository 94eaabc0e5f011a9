package slamshare_test

// The architecture rules. Each row of archRules pins one shape of the
// system that a change could quietly undo (one byte codec, one device
// loop, one bundle-adjustment assembly, …), and DESIGN.md explains it
// under the row's name. The rows read the module through go/parser and
// go/types, so a reference is resolved rather than spelled: a method
// value, an alias or a named type counts as much as a call, a literal
// or a map written out. A new rule is a new row here.
//
// The module's packages are type-checked from source, once each; the
// standard library comes from the compiler's export data, which one
// "go list -export" locates.

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const archModule = "slamshare"

// archRule is one row: its name, as DESIGN.md cites it, and a check that
// returns each violation as "file:line: what".
type archRule struct {
	name  string
	check func(*archTree) []string
}

var archRules = []archRule{
	{"One byte codec", importedOnlyIn("encoding/binary",
		"internal/codec/", "internal/video/", "internal/img/")},
	{"One tracking backend", importedOnlyIn(archModule+"/internal/gpu",
		"internal/exp/", "internal/server/server.go", "bench/")},
	{"The front forwards bytes", allOf(
		archRefs{
			syms: []archSym{{"internal/video", "", "NewEncoder"}},
			in:   "internal/cluster/", only: []string{"internal/cluster/front.go"}, need: true,
		}.check,
		// The resync window: writePending re-encodes, and feed decodes
		// the device stream it needs, only while a connection does not
		// follow that stream.
		archRefs{
			syms: []archSym{{"internal/video", "Decoder", "Decode"}, {"internal/video", "", "EncodeStereo"}},
			in:   "internal/cluster/", only: []string{"internal/cluster/front.go#feed", "internal/cluster/front.go#writePending"}, need: true,
		}.check)},
	{"One queue between the map and the disk", allOf(
		noKind[*types.Chan]("internal/smap/", "a channel"),
		noGo("internal/smap/"),
		noNames(`FlushEvents|barrier\(\)`, "internal/"))},
	{"No byte budget that rejects nothing",
		noNames(`RegionCapacity|ShmCapacity|shm-gb|kf_rejected|regionUsed`, "", "README.md", "DESIGN.md")},
	{"One bundle-adjustment assembly", allOf(
		oneValueSite(archSym{"internal/optimize", "", "BAProblem"}, "internal/mapping/ba.go"),
		noKind[*types.Map]("internal/optimize/ba.go", "a Go map in the solver, whose order would reach a float sum"))},
	{"One keyframe-culling rule", cullsByRedundancy},
	{"One device loop", archRefs{
		syms: []archSym{
			{"internal/client", "Client", "BuildFrame"},
			{"internal/protocol", "", "ReadMessage"},
			{"internal/protocol", "", "DecodePoseMsg"},
		},
		in: "internal/chaos/",
	}.check},
	{"One experiment loop", archRefs{
		syms: []archSym{
			{"internal/server", "Server", "OpenSession"},
			{"internal/server", "Session", "Handle"},
			{"internal/client", "Client", "BuildUplink"},
			{"internal/client", "Client", "ApplyPose"},
		},
		in: "internal/exp/", only: []string{"internal/exp/runner.go"},
	}.check},
	{"One uplink path", allOf(
		archRefs{
			syms: []archSym{
				{"internal/client", "Client", "BuildFrame"},
				{"internal/client", "Client", "BuildKeypointFrame"},
				{"internal/server", "Session", "HandleFrame"},
				{"internal/server", "Session", "HandleKeypoints"},
			},
			// bench/ drives the typed halves until the benchmark's own
			// change moves it onto BuildUplink and Session.Handle.
			only: []string{"internal/client/", "internal/server/", "bench/"},
		}.check,
		noNames(`BuildSync|HandleSync|ShedFrame`, ""))},
	{"One motion model", noNames(`SetVelocity|prevTwc|prevStamp|NewIntegrator|DriftRMS`, "")},
	{"Every map mutation is journaled", journaledMutators(map[string]string{
		"UpdateConnections": "derived: Recover recomputes every keyframe's covisibility after replay",
		"BumpPointFound":    "derived: Visible/Found are culling statistics the entity codec does not carry; a recovered point starts them at zero",
		"TouchKeyFrames":    "derived: the touch stamp is an eviction statistic the entity codec does not carry; a recovered keyframe starts at its insert tick",
		"UndoFuse":          "compensation: it edits keyframes the rollback's RemoveEntities unlinks next, whose replayed erases detach the same observers",
		"SetObserver":       "installs the observer itself; no map state",
	})},
	{"One order for entity relations", allOf(
		slicesByName(
			archField{"internal/smap", "MapPoint", "Obs"},
			archField{"internal/smap", "KeyFrame", "Conns"},
			archField{"internal/bow", "Vec", ""}),
		noNames(`keyScratch`, "internal/wire/"))},
}

func TestArchitecture(t *testing.T) {
	tree := loadArch(t)
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range archSorted(r.check(tree)) {
				t.Error(v)
			}
		})
	}
}

// TestArchitectureRulesBite plants a violation for each type-resolved
// row, most of a kind a grep over the source let through, and checks
// that the row reports it; and one look-alike a grep flagged, which must
// stay quiet. Only the edited package is type-checked again, and it need
// not compile.
func TestArchitectureRulesBite(t *testing.T) {
	tree := loadArch(t)
	for _, c := range []struct {
		rule  string
		edits []archEdit // the row must report the last edit's file
		fires bool
	}{
		{"One byte codec", []archEdit{{"internal/merge/merge.go", "import (", "import (\n\tbin \"encoding/binary\""}}, true},
		{"The front forwards bytes", []archEdit{
			{"internal/cluster/shard.go", "import (", "import (\n\tvid \"slamshare/internal/video\""},
			{"internal/cluster/shard.go", "", "\nvar _ = vid.NewEncoder\n"}}, true},
		{"The front forwards bytes", []archEdit{
			{"internal/cluster/front.go", "", "\nfunc (s *session) peek(b []byte) { s.decL.Decode(b) }\n"}}, true},
		{"One queue between the map and the disk", []archEdit{
			{"internal/smap/smap.go", "", "\nfunc spawn(f func()) { go f() }\n"}}, true},
		{"One bundle-adjustment assembly", []archEdit{
			{"internal/merge/merge.go", "", "\nvar p optimize.BAProblem\n"}}, true},
		{"One bundle-adjustment assembly", []archEdit{
			{"internal/optimize/optimize.go", "", "\ntype seen map[int]bool\n"},
			{"internal/optimize/ba.go", "", "\nvar _ seen\n"}}, true},
		{"One keyframe-culling rule", []archEdit{
			{"internal/lifecycle/lifecycle.go", "", "\nfunc nkps(kf *smap.KeyFrame) int { k := kf.Keypoints; return len(k) }\n"}}, true},
		{"One keyframe-culling rule", []archEdit{
			{"internal/lifecycle/lifecycle.go", "", "\nfunc own(s float64) bool { redundant := s > 0.9; return redundant }\n"}}, true},
		{"One device loop", []archEdit{{"internal/chaos/harness.go", "", "\nvar read = protocol.ReadMessage\n"}}, true},
		{"One device loop", []archEdit{{"internal/chaos/harness.go", "",
			"\ntype builder interface{ BuildFrame(int) *protocol.FrameMsg }\n\nfunc first(b builder) { b.BuildFrame(0) }\n"}}, true},
		{"One experiment loop", []archEdit{
			{"internal/exp/table1.go", "", "\nvar open = (*server.Server).OpenSession\n"}}, true},
		{"One experiment loop", []archEdit{
			{"internal/exp/table1.go", "", "\ntype mux struct{}\n\nfunc (mux) Handle(string, any) {}\n\nfunc route(m mux) { m.Handle(\"/\", nil) }\n"}}, false},
		{"One uplink path", []archEdit{
			{"internal/chaos/harness.go", "", "\nvar build = (*client.Client).BuildKeypointFrame\n"}}, true},
		{"Every map mutation is journaled", []archEdit{
			{"internal/smap/smap.go", "", "\nfunc (m *Map) Poke(id ID) { s := m.stripe(id); s.mu.Lock(); s.kfVer[id]++; s.mu.Unlock() }\n"}}, true},
		{"Every map mutation is journaled", []archEdit{
			{"internal/smap/smap.go", "\t\tm.observer.PointFused(from, to)\n", ""}}, true},
		{"One order for entity relations", []archEdit{
			{"internal/smap/smap.go", "Obs []ObsEntry", "Obs obsSet"},
			{"internal/smap/smap.go", "", "\ntype obsSet map[ID]int\n"}}, true},
	} {
		planted := tree
		for _, e := range c.edits {
			src := string(planted.text[e.file])
			if !strings.Contains(src, e.old) {
				t.Fatalf("%s: %s has no %q to edit; update the case", c.rule, e.file, e.old)
			}
			if e.old == "" {
				src += e.new
			} else {
				src = strings.Replace(src, e.old, e.new, 1)
			}
			var err error
			if planted, err = planted.with(e.file, src); err != nil {
				t.Fatalf("%s: %v", c.rule, err)
			}
		}
		at := c.edits[len(c.edits)-1].file + ":"
		var hits []string
		for _, r := range archRules {
			if r.name != c.rule {
				continue
			}
			for _, v := range r.check(planted) {
				if strings.HasPrefix(v, at) {
					hits = append(hits, v)
				}
			}
		}
		switch {
		case c.fires && len(hits) == 0:
			t.Errorf("%s does not fire on %v", c.rule, c.edits)
		case !c.fires && len(hits) > 0:
			t.Errorf("%s fires on a look-alike: %v", c.rule, hits)
		}
	}
}

// archEdit replaces old with new in file, or with old empty appends new.
type archEdit struct{ file, old, new string }

// archTree is the module as the rules read it.
type archTree struct {
	fset *token.FileSet
	// text holds every .go file, tests included, by slash path from
	// the module root; parsed holds the non-test ones, whatever their
	// build constraints.
	text   map[string][]byte
	parsed map[string]*ast.File
	pkgs   map[string]*archPkg // by import path
	std    types.Importer      // the standard library
}

// archPkg is one package of the module: its non-test files as the
// build would pick them, with their type information once checked.
type archPkg struct {
	path  string
	names []string
	files []*ast.File
	types *types.Package
	info  *types.Info
	err   error
	// loose records type errors instead of failing: a planted
	// violation may not compile, and the rules read what types it has.
	loose bool
}

var archOnce struct {
	sync.Once
	tree *archTree
	err  error
}

func loadArch(t *testing.T) *archTree {
	t.Helper()
	archOnce.Do(func() { archOnce.tree, archOnce.err = loadArchTree() })
	if archOnce.err != nil {
		t.Fatal(archOnce.err)
	}
	return archOnce.tree
}

// loadArchTree reads the module rooted at the working directory: every
// .go file outside hidden, underscore and testdata directories.
func loadArchTree() (*archTree, error) {
	tr := &archTree{
		fset:   token.NewFileSet(),
		text:   make(map[string][]byte),
		parsed: make(map[string]*ast.File),
		pkgs:   make(map[string]*archPkg),
	}
	dirs := make(map[string]bool)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name[0] == '.' || name[0] == '_' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		tr.text[p] = src
		if !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(tr.fset, p, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			tr.parsed[p] = f
			dirs[path.Dir(p)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := make(map[string]bool)
	for dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			continue
		} else if err != nil {
			return nil, err
		}
		p := &archPkg{path: path.Join(archModule, dir)}
		for _, name := range bp.GoFiles {
			name = path.Join(dir, name)
			p.names = append(p.names, name)
			p.files = append(p.files, tr.parsed[name])
		}
		tr.pkgs[p.path] = p
		for _, imp := range bp.Imports {
			if imp != archModule && !strings.HasPrefix(imp, archModule+"/") {
				std[imp] = true
			}
		}
	}
	if tr.std, err = stdImporter(tr.fset, std); err != nil {
		return nil, err
	}
	for _, p := range tr.pkgs {
		if _, err := tr.check(p); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// stdImporter imports the standard library from the compiler's export
// data, located for every package in paths by one go list.
func stdImporter(fset *token.FileSet, paths map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range paths {
		if p != "unsafe" && p != "C" {
			args = append(args, p)
		}
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	export := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, "\t")
		export[p] = file
	}
	return importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		file := export[p]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(file)
	}), nil
}

// check type-checks p, and first whatever of the module it imports.
func (tr *archTree) check(p *archPkg) (*types.Package, error) {
	if p.types != nil || p.err != nil {
		return p.types, p.err
	}
	p.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: archImporter{tr}}
	if p.loose {
		conf.Error = func(error) {}
	}
	p.types, p.err = conf.Check(p.path, tr.fset, p.files, p.info)
	if p.loose {
		p.err = nil
	}
	return p.types, p.err
}

type archImporter struct{ tr *archTree }

func (im archImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.tr.pkgs[path]; ok {
		return im.tr.check(p)
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return im.tr.std.Import(path)
}

// with returns the tree with file's text replaced by src and its
// package checked again; the packages that import it keep the old one.
func (tr *archTree) with(file, src string) (*archTree, error) {
	f, err := parser.ParseFile(tr.fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	out := *tr
	out.text = maps.Clone(tr.text)
	out.parsed = maps.Clone(tr.parsed)
	out.pkgs = maps.Clone(tr.pkgs)
	out.text[file] = []byte(src)
	out.parsed[file] = f
	for key, p := range tr.pkgs {
		if i := slices.Index(p.names, file); i >= 0 {
			q := &archPkg{path: p.path, names: p.names, files: slices.Clone(p.files), loose: true}
			q.files[i] = f
			out.pkgs[key] = q
			_, err = out.check(q)
		}
	}
	return &out, err
}

// files calls f for every type-checked file under prefix ("" for the
// whole module).
func (tr *archTree) files(prefix string, f func(p *archPkg, name string, file *ast.File)) {
	for _, p := range tr.pkgs {
		for i, name := range p.names {
			if strings.HasPrefix(name, prefix) {
				f(p, name, p.files[i])
			}
		}
	}
}

func (tr *archTree) at(pos token.Pos) string {
	p := tr.fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// archSym names a package-level function or type of the module, or
// with recv a method of one of its types.
type archSym struct{ pkg, recv, name string }

func (s archSym) String() string {
	if s.recv != "" {
		return fmt.Sprintf("%s.(*%s).%s", path.Base(s.pkg), s.recv, s.name)
	}
	return path.Base(s.pkg) + "." + s.name
}

// lookup finds s, and for a method the type that declares it.
func (tr *archTree) lookup(s archSym) (types.Object, *types.Named, error) {
	p, ok := tr.pkgs[path.Join(archModule, s.pkg)]
	if !ok || p.types == nil {
		return nil, nil, fmt.Errorf("rule names %s, but package %s is not in the module", s, s.pkg)
	}
	if s.recv == "" {
		if obj := p.types.Scope().Lookup(s.name); obj != nil {
			return obj, nil, nil
		}
		return nil, nil, fmt.Errorf("rule names %s, which does not exist", s)
	}
	if tn, ok := p.types.Scope().Lookup(s.recv).(*types.TypeName); ok {
		if named, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Name() == s.name {
					return m, named, nil
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("rule names %s, which does not exist", s)
}

func under(name string, prefixes []string) bool {
	return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) })
}

func allOf(checks ...func(*archTree) []string) func(*archTree) []string {
	return func(tr *archTree) []string {
		var out []string
		for _, c := range checks {
			out = append(out, c(tr)...)
		}
		return out
	}
}

func archSorted(vs []string) []string {
	slices.Sort(vs)
	return slices.Compact(vs)
}

// importedOnlyIn: only files under the allowed prefixes import imp.
func importedOnlyIn(imp string, allowed ...string) func(*archTree) []string {
	return func(tr *archTree) []string {
		var out []string
		for name, f := range tr.parsed {
			for _, spec := range f.Imports {
				if p, _ := strconv.Unquote(spec.Path.Value); p == imp && !under(name, allowed) {
					out = append(out, fmt.Sprintf("%s: imports %s; only %s may", tr.at(spec.Pos()), imp, strings.Join(allowed, ", ")))
				}
			}
		}
		return out
	}
}

// archRefs: references to syms from files under in ("" for the whole
// module) lie only in the directories, files or functions ("file#name")
// listed in only — with need, at least one does. A method also counts
// when it is reached through an interface its type implements.
type archRefs struct {
	syms []archSym
	in   string
	only []string
	need bool
}

func (r archRefs) check(tr *archTree) []string {
	var out []string
	type target struct {
		sym  archSym
		obj  types.Object
		recv *types.Named
	}
	var targets []target
	for _, s := range r.syms {
		obj, recv, err := tr.lookup(s)
		if err != nil {
			out = append(out, err.Error())
			continue
		}
		targets = append(targets, target{s, obj, recv})
	}
	matches := func(obj types.Object, t target) bool {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj == t.obj {
			return true
		}
		if t.recv == nil || obj.Name() != t.obj.Name() {
			return false
		}
		sig, ok := obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return false
		}
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		return ok && types.Implements(types.NewPointer(t.recv), iface)
	}
	found := 0
	tr.files(r.in, func(p *archPkg, name string, f *ast.File) {
		for _, d := range f.Decls {
			where := name
			if fd, ok := d.(*ast.FuncDecl); ok {
				where += "#" + fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || p.info.Uses[id] == nil {
					return true
				}
				for _, t := range targets {
					switch {
					case !matches(p.info.Uses[id], t):
					case slices.Contains(r.only, where) || under(name, r.only):
						found++
					default:
						out = append(out, fmt.Sprintf("%s: references %s", tr.at(id.Pos()), t.sym))
					}
				}
				return true
			})
		}
	})
	if r.need && found == 0 {
		out = append(out, fmt.Sprintf("nothing in %s references %v any more; update the rule", strings.Join(r.only, ", "), r.syms))
	}
	return out
}

// noKind: no expression or type in the files under prefix has an
// underlying type of kind K (a channel, a map), however it is named.
func noKind[K types.Type](prefix, what string) func(*archTree) []string {
	return func(tr *archTree) []string {
		var out []string
		tr.files(prefix, func(p *archPkg, _ string, f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && p.info.Types[e].Type != nil {
					if _, ok := p.info.Types[e].Type.Underlying().(K); ok {
						out = append(out, tr.at(e.Pos())+": "+what)
					}
				}
				return true
			})
		})
		return out
	}
}

// noGo: the files under prefix start no goroutine.
func noGo(prefix string) func(*archTree) []string {
	return func(tr *archTree) []string {
		var out []string
		tr.files(prefix, func(_ *archPkg, _ string, f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					out = append(out, tr.at(g.Pos())+": go statement")
				}
				return true
			})
		})
		return out
	}
}

// oneValueSite: values of the struct type sym (a literal, a variable, a
// field, new(T), an alias; anything but a pointer to one) are made only
// in file, and the module spells exactly one literal of it.
func oneValueSite(sym archSym, file string) func(*archTree) []string {
	return func(tr *archTree) []string {
		obj, _, err := tr.lookup(sym)
		if err != nil {
			return []string{err.Error()}
		}
		var out, lits []string
		tr.files("", func(p *archPkg, name string, f *ast.File) {
			pointee := make(map[ast.Node]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StarExpr:
					pointee[n.X] = true
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						pointee[sel.Sel] = true
					}
				case *ast.CompositeLit:
					if t := p.info.Types[n].Type; t != nil && types.Identical(t, obj.Type()) {
						lits = append(lits, tr.at(n.Pos()))
					}
				case *ast.Ident:
					if p.info.Uses[n] == obj && !pointee[n] && name != file {
						out = append(out, fmt.Sprintf("%s: a value of %s outside %s", tr.at(n.Pos()), sym, file))
					}
				}
				return true
			})
		})
		if len(lits) != 1 {
			out = append(out, fmt.Sprintf("%d literals of %s (%s), want the one in %s", len(lits), sym, strings.Join(lits, ", "), file))
		}
		return out
	}
}

// cullsByRedundancy: internal/lifecycle reads a keyframe's keypoints
// only for their count, and every variable named redundan* in it takes
// its value from mapping.Redundancy.
func cullsByRedundancy(tr *archTree) []string {
	kf, _, err := tr.lookup(archSym{"internal/smap", "", "KeyFrame"})
	if err != nil {
		return []string{err.Error()}
	}
	kps, _, _ := types.LookupFieldOrMethod(kf.Type(), false, kf.Pkg(), "Keypoints")
	if kps == nil {
		return []string{"rule names smap.KeyFrame.Keypoints, which does not exist"}
	}
	var out []string
	redundancy, _, err := tr.lookup(archSym{"internal/mapping", "", "Redundancy"})
	if err != nil {
		out = append(out, err.Error())
	}
	tr.files("internal/lifecycle/", func(p *archPkg, name string, f *ast.File) {
		counted := make(map[ast.Expr]bool)
		fromRedundancy := func(rhs []ast.Expr) bool {
			if len(rhs) != 1 {
				return false
			}
			call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && redundancy != nil && p.info.Uses[sel.Sel] == redundancy
		}
		checkNames := func(lhs []ast.Expr, rhs []ast.Expr) {
			for _, e := range lhs {
				if id, ok := e.(*ast.Ident); ok && strings.HasPrefix(id.Name, "redundan") && !fromRedundancy(rhs) {
					out = append(out, tr.at(id.Pos())+": "+id.Name+" is scored here, not by mapping.Redundancy")
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "len" && len(n.Args) == 1 {
					if _, ok := p.info.Uses[id].(*types.Builtin); ok {
						counted[ast.Unparen(n.Args[0])] = true
					}
				}
			case *ast.SelectorExpr:
				if p.info.Uses[n.Sel] == kps && !counted[n] {
					out = append(out, tr.at(n.Pos())+": reads smap.KeyFrame.Keypoints; score keyframes with mapping.Redundancy")
				}
			case *ast.AssignStmt:
				checkNames(n.Lhs, n.Rhs)
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					lhs[i] = id
				}
				checkNames(lhs, n.Values)
			}
			return true
		})
	})
	return out
}

// archField names a struct field, or with field empty a named type.
type archField struct{ pkg, typ, field string }

// slicesByName: each named field or type has slice kind, and nothing
// else its package declares under that name has map kind.
func slicesByName(fields ...archField) func(*archTree) []string {
	return func(tr *archTree) []string {
		var out []string
		for _, fd := range fields {
			obj, _, err := tr.lookup(archSym{fd.pkg, "", fd.typ})
			name, full := fd.typ, path.Base(fd.pkg)+"."+fd.typ
			if err == nil && fd.field != "" {
				obj, _, _ = types.LookupFieldOrMethod(obj.Type(), false, obj.Pkg(), fd.field)
				name, full = fd.field, full+"."+fd.field
			}
			if obj == nil || err != nil {
				out = append(out, fmt.Sprintf("rule names %s, which does not exist", full))
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
				out = append(out, fmt.Sprintf("%s: %s is a %s, not a slice by ascending ID", tr.at(obj.Pos()), full, obj.Type().Underlying()))
			}
			p := tr.pkgs[path.Join(archModule, fd.pkg)]
			for id, def := range p.info.Defs {
				if def != nil && id.Name == name {
					if _, ok := def.Type().Underlying().(*types.Map); ok {
						out = append(out, fmt.Sprintf("%s: %s is a map", tr.at(id.Pos()), name))
					}
				}
			}
		}
		return out
	}
}

// noNames: no .go file under prefix (tests included, this one not) and
// no listed document matches re — names of deleted code that must not
// come back.
func noNames(re, prefix string, docs ...string) func(*archTree) []string {
	rx := regexp.MustCompile(re)
	return func(tr *archTree) []string {
		var out []string
		match := func(name string, src []byte) {
			for i, line := range bytes.Split(src, []byte("\n")) {
				if m := rx.Find(line); m != nil {
					out = append(out, fmt.Sprintf("%s:%d: %s is deleted code", name, i+1, m))
				}
			}
		}
		for name, src := range tr.text {
			if strings.HasPrefix(name, prefix) && name != "arch_test.go" {
				match(name, src)
			}
		}
		for _, doc := range docs {
			src, err := os.ReadFile(doc)
			if err != nil {
				out = append(out, err.Error())
			}
			match(doc, src)
		}
		return out
	}
}

// journaledMutators: every exported method of *smap.Map that writes
// under a stripe write lock reports to the map's observer. A method
// that takes the lock itself (a stripe's mu.Lock, or an unexported
// helper that locks without notifying, such as lockPair) calls
// m.observer in its own body; one that only calls other mutators
// reaches the observer through one of them. derived lists the
// exceptions, each with its replay rule.
func journaledMutators(derived map[string]string) func(*archTree) []string {
	return func(tr *archTree) []string {
		mapObj, _, err := tr.lookup(archSym{"internal/smap", "", "Map"})
		if err != nil {
			return []string{err.Error()}
		}
		stripeObj, _, err := tr.lookup(archSym{"internal/smap", "", "stripe"})
		if err != nil {
			return []string{err.Error()}
		}
		named := func(t types.Type, obj types.Object) bool {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			return ok && n.Obj() == obj
		}
		type method struct {
			pos            token.Pos
			locks, tells   bool // in its own body
			callees        []string
			locksTransit   bool // locks through an unexported helper that reports nothing
			reachesTransit bool // tells, or calls a method that reaches the observer
		}
		methods := make(map[string]*method)
		tr.files("internal/smap/", func(p *archPkg, _ string, f *ast.File) {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil || !named(p.info.TypeOf(fd.Recv.List[0].Type), mapObj) {
					continue
				}
				m := &method{pos: fd.Name.Pos()}
				methods[fd.Name.Name] = m
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if inner, ok := sel.X.(*ast.SelectorExpr); ok {
						switch {
						case sel.Sel.Name == "Lock" && inner.Sel.Name == "mu" && named(p.info.TypeOf(inner.X), stripeObj):
							m.locks = true
						case inner.Sel.Name == "observer" && named(p.info.TypeOf(inner.X), mapObj):
							m.tells = true
						}
					}
					if fn, ok := p.info.Uses[sel.Sel].(*types.Func); ok {
						if sig := fn.Type().(*types.Signature); sig.Recv() != nil && named(sig.Recv().Type(), mapObj) {
							m.callees = append(m.callees, fn.Name())
						}
					}
					return true
				})
			}
		})
		// A lock helper is an unexported method that writes under a lock
		// it does not report (lockPair, lockAll, setEdge): calling one
		// is taking the lock. Iterate both closures to their fixed point.
		for _, m := range methods {
			m.reachesTransit = m.tells
		}
		for changed := true; changed; {
			changed = false
			for _, m := range methods {
				for _, c := range m.callees {
					cm := methods[c]
					if cm == nil {
						continue
					}
					helper := !ast.IsExported(c) && (cm.locks && !cm.tells || cm.locksTransit)
					if helper && !m.locksTransit {
						m.locksTransit, changed = true, true
					}
					if cm.reachesTransit && !m.reachesTransit {
						m.reachesTransit, changed = true, true
					}
				}
			}
		}
		var out []string
		for name, why := range derived {
			if methods[name] == nil {
				out = append(out, fmt.Sprintf("rule lists smap.(*Map).%s (%s), which does not exist", name, why))
			}
		}
		for name, m := range methods {
			if !ast.IsExported(name) || derived[name] != "" {
				continue
			}
			lockedHere := m.locks || m.locksTransit
			switch {
			case lockedHere && !m.tells:
				out = append(out, fmt.Sprintf("%s: smap.(*Map).%s writes under a stripe lock it takes and tells no observer", tr.at(m.pos), name))
			case !lockedHere && !m.reachesTransit && slices.ContainsFunc(m.callees, func(c string) bool {
				cm := methods[c]
				return cm != nil && (cm.locks || cm.locksTransit)
			}):
				out = append(out, fmt.Sprintf("%s: smap.(*Map).%s mutates through methods none of which reaches the observer", tr.at(m.pos), name))
			}
		}
		return out
	}
}
