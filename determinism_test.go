package maxsumdiv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// deterministicPackages must draw every random number from a seeded
// generator: their outputs (solver results, ring placement, candidate
// sketches, generated workloads) are pinned bit for bit by tests and must
// replay from a seed.
var deterministicPackages = []string{
	"internal/core",
	"internal/cluster",
	"internal/candidate",
	"internal/scenario",
}

// randAllowed are the math/rand and math/rand/v2 identifiers that do not
// touch the process-wide source: seeded-generator constructors and the
// types they return.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

const globalRandMsg = "package-level math/rand function draws from the process-wide source; use a seeded rand.New(...)"

// globalRandUses returns the position of every reference to a package-level
// math/rand (or math/rand/v2) function in f, called or not, plus any dot
// import of those packages (which would hide such calls).
func globalRandUses(f *ast.File) []token.Pos {
	var out []token.Pos
	names := map[string]bool{}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "math/rand" && path != "math/rand/v2" {
			continue
		}
		switch {
		case imp.Name == nil:
			names["rand"] = true
		case imp.Name.Name == ".":
			out = append(out, imp.Pos())
		default:
			names[imp.Name.Name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && names[id.Name] && !randAllowed[sel.Sel.Name] {
				out = append(out, sel.Pos())
			}
		}
		return true
	})
	return out
}

// TestNoGlobalRandInDeterministicPackages is the determinism guard: no
// source or test file of a deterministic package may use the process-wide
// math/rand source.
func TestNoGlobalRandInDeterministicPackages(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range deterministicPackages {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no Go files; update deterministicPackages", dir)
		}
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range globalRandUses(f) {
				t.Errorf("%s: %s", fset.Position(pos), globalRandMsg)
			}
		}
	}
}

// wantRE matches a fixture's expected-diagnostic comment.
var wantRE = regexp.MustCompile(`^// want "([^"]*)"$`)

// TestGlobalRandGuardFixture checks the guard itself against
// testdata/globalrand: it must flag exactly the lines carrying a want
// comment, with a message matching the comment's pattern.
func TestGlobalRandGuardFixture(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", "globalrand", "globalrand.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]*regexp.Regexp{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if m := wantRE.FindStringSubmatch(c.Text); m != nil {
				want[fset.Position(c.Pos()).Line] = regexp.MustCompile(m[1])
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture has no want comments")
	}
	flagged := map[int]bool{}
	for _, pos := range globalRandUses(f) {
		p := fset.Position(pos)
		re, ok := want[p.Line]
		switch {
		case !ok:
			t.Errorf("%s: unexpected diagnostic %q", p, globalRandMsg)
		case !re.MatchString(globalRandMsg):
			t.Errorf("%s: diagnostic %q does not match %q", p, globalRandMsg, re)
		}
		flagged[p.Line] = true
	}
	for line := range want {
		if !flagged[line] {
			t.Errorf("%s:%d: want a diagnostic, got none", f.Name.Name, line)
		}
	}
}
