package slamshare_test

// Checks that keep DESIGN.md in step with the code and the other
// documents: every section cited from code, CI, README.md and
// EXPERIMENTS.md exists, the module map names every package, every CI
// grep gate is explained, every CI test pattern selects a test, and the
// file keeps to its size budget.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// designBudget is DESIGN.md's size ceiling in bytes: a change that adds
// to it takes at least as much out.
const designBudget = 50 << 10

const ciPath = ".github/workflows/ci.yml"

var (
	// citeRe matches a citation of DESIGN.md sections, the file name
	// bare or in backticks, with any "and §M" that follows; sectRe
	// picks the section numbers out of it.
	citeRe    = regexp.MustCompile("DESIGN(?:\\.md)?`?\\s*§\\s*\\d+(?:(?:\\s*[,;]\\s*|\\s+and\\s+|\\s+or\\s+)§\\s*\\d+)*")
	sectRe    = regexp.MustCompile(`§\s*(\d+)`)
	headingRe = regexp.MustCompile(`(?m)^## (\d+)\. (.*)$`)
)

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// designSections splits DESIGN.md into its numbered "## N." sections,
// each with its heading and body.
func designSections(t *testing.T) map[int]string {
	t.Helper()
	design := readDoc(t, "DESIGN.md")
	locs := headingRe.FindAllStringSubmatchIndex(design, -1)
	if len(locs) == 0 {
		t.Fatal(`DESIGN.md has no "## N." sections`)
	}
	sections := make(map[int]string, len(locs))
	for i, loc := range locs {
		n, _ := strconv.Atoi(design[loc[2]:loc[3]])
		end := len(design)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		sections[n] = design[loc[0]:end]
	}
	return sections
}

// ciStep is one step of the CI workflow: its title (the name up to a
// parenthesised gloss) and its whole text.
type ciStep struct {
	title, text string
}

func ciSteps(t *testing.T) []ciStep {
	t.Helper()
	var steps []ciStep
	parts := strings.Split(readDoc(t, ciPath), "- name:")
	for _, p := range parts[1:] {
		name, _, _ := strings.Cut(p, "\n")
		name = strings.Trim(strings.TrimSpace(name), `"'`)
		title, _, _ := strings.Cut(name, " (")
		steps = append(steps, ciStep{title: title, text: p})
	}
	return steps
}

// isGrepGate reports whether a step fails the build on a grep match.
func (s ciStep) isGrepGate() bool {
	return strings.Contains(s.text, "grep") && strings.Contains(s.text, "exit 1")
}

// oneLine collapses every run of white space to one space, so a phrase
// wrapped across lines still matches.
func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }

// citations returns the sections each DESIGN citation in text names,
// keyed by the line it starts on.
func citations(text string) map[int][]int {
	out := make(map[int][]int)
	for _, loc := range citeRe.FindAllStringIndex(text, -1) {
		line := 1 + strings.Count(text[:loc[0]], "\n")
		for _, m := range sectRe.FindAllStringSubmatch(text[loc[0]:loc[1]], -1) {
			n, _ := strconv.Atoi(m[1])
			out[line] = append(out[line], n)
		}
	}
	return out
}

func TestDesignCitationsResolve(t *testing.T) {
	sections := designSections(t)
	files := []string{ciPath, "README.md", "EXPERIMENTS.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, f := range files {
		for line, ns := range citations(readDoc(t, f)) {
			for _, n := range ns {
				found++
				if _, ok := sections[n]; !ok {
					t.Errorf("%s:%d cites DESIGN §%d, which has no \"## %d.\" heading", f, line, n, n)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no DESIGN citations found; is the pattern stale?")
	}
	// A CI step that cites DESIGN cites the section that explains it.
	for _, s := range ciSteps(t) {
		for _, ns := range citations(s.text) {
			for _, n := range ns {
				if sec, ok := sections[n]; ok && !strings.Contains(oneLine(sec), s.title) {
					t.Errorf("CI step %q cites DESIGN §%d, which does not name it", s.title, n)
				}
			}
		}
	}
}

func TestDesignModuleMapCoversPackages(t *testing.T) {
	var modmap string
	for _, sec := range designSections(t) {
		if strings.Contains(strings.ToLower(strings.SplitN(sec, "\n", 2)[0]), "module map") {
			modmap = sec
		}
	}
	if modmap == "" {
		t.Fatal(`DESIGN.md has no "Module map" section`)
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	exist := make(map[string]bool)
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		exist[d.Name()] = true
		if !strings.Contains(modmap, "`internal/"+d.Name()+"`") {
			t.Errorf("the module map does not name internal/%s", d.Name())
		}
	}
	for _, m := range regexp.MustCompile("`internal/([a-z0-9]+)`").FindAllStringSubmatch(modmap, -1) {
		if !exist[m[1]] {
			t.Errorf("the module map names internal/%s, which does not exist", m[1])
		}
	}
}

func TestDesignNamesCIGates(t *testing.T) {
	design := oneLine(readDoc(t, "DESIGN.md"))
	gates := 0
	for _, s := range ciSteps(t) {
		if !s.isGrepGate() {
			continue
		}
		gates++
		if !strings.Contains(design, s.title) {
			t.Errorf("DESIGN.md does not name CI gate %q", s.title)
		}
	}
	if gates == 0 {
		t.Fatalf("no grep gates found in %s; is the parser stale?", ciPath)
	}
}

func TestDesignSize(t *testing.T) {
	if n := len(readDoc(t, "DESIGN.md")); n > designBudget {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte budget: take out at least as much as you add", n, designBudget)
	}
}

// testFuncRe picks the test, benchmark, fuzz and example functions out
// of a _test.go file; ciPatternRe picks a -run, -bench or -fuzz
// pattern, quoted or bare, out of a go test command line, and
// ciPkgRe its package paths.
var (
	testFuncRe  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	ciPatternRe = regexp.MustCompile(`(-run|-bench|-fuzz)[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)
	ciPkgRe     = regexp.MustCompile(`(?:^|\s)(\./\S*)`)
)

// testFuncs returns the test function names declared in the _test.go
// files of the given package paths ("./..." walks the whole module).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var files, names []string
	for _, pkg := range pkgs {
		if root, ok := strings.CutSuffix(pkg, "/..."); ok {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if d != nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
					return filepath.SkipDir
				}
				if strings.HasSuffix(path, "_test.go") {
					files = append(files, path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		m, _ := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		files = append(files, m...)
	}
	for _, f := range files {
		for _, m := range testFuncRe.FindAllStringSubmatch(readDoc(t, f), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// TestCIPatternsMatchTests: go test passes silently when a -run,
// -bench or -fuzz pattern matches nothing, so a renamed test would drop
// out of its CI step unseen. Every |-separated alternative of every
// such pattern in ci.yml must select a function of the right kind in
// the packages that command names. The deliberate no-match patterns ^$
// and xxx are exempt, and so is a pattern built from a shell variable
// (the go test -list loop).
func TestCIPatternsMatchTests(t *testing.T) {
	kinds := map[string]string{"-run": "Test", "-bench": "Benchmark", "-fuzz": "Fuzz"}
	checked := 0
	for _, line := range strings.Split(readDoc(t, ciPath), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var pkgs []string
		for _, m := range ciPkgRe.FindAllStringSubmatch(cmd, -1) {
			pkgs = append(pkgs, m[1])
		}
		funcs := testFuncs(t, pkgs)
		for _, m := range ciPatternRe.FindAllStringSubmatch(cmd, -1) {
			flag, pattern := m[1], m[2]+m[3]+m[4]
			if pattern == "^$" || pattern == "xxx" || strings.Contains(pattern, "$f") {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: %s %q: %v", ciPath, flag, alt, err)
					continue
				}
				checked++
				if !slices.ContainsFunc(funcs, func(f string) bool {
					return strings.HasPrefix(f, kinds[flag]) && re.MatchString(f)
				}) {
					t.Errorf("%s: %s alternative %q matches no %s function in %v", ciPath, flag, alt, kinds[flag], pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no go test patterns found in %s; is the parser stale?", ciPath)
	}
}
