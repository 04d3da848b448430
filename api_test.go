package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wrapperSuffixes name the variants a pass must not grow beside its single
// context-first entry point: XT (tracing) and XCtx (cancellable).
var wrapperSuffixes = []string{"T", "Ctx"}

// wrapperPairs reports every exported X that shares its scope with an
// exported X+suffix. Functions share the package scope; methods share
// their receiver type's scope.
func wrapperPairs(files []*ast.File) []string {
	exported := funcDecls(files)
	var pairs []string
	for name := range exported {
		for _, suf := range wrapperSuffixes {
			base := strings.TrimSuffix(name, suf)
			if _, ok := exported[base]; ok && base != name && !strings.HasSuffix(base, ".") {
				pairs = append(pairs, base+" / "+name)
			}
		}
	}
	sort.Strings(pairs)
	return pairs
}

// receiverName is "Type." for a method and "" for a function.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}

// parseInternal parses the non-test sources of every package under
// internal/, keyed by package directory.
func parseInternal(t *testing.T) map[string][]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages found under internal/")
	}
	return pkgs
}

// TestSingleEntryPointPerPass keeps one exported function per operation
// under internal/: no package may export both X and XCtx, or X and XT.
func TestSingleEntryPointPerPass(t *testing.T) {
	for dir, files := range parseInternal(t) {
		for _, p := range wrapperPairs(files) {
			t.Errorf("%s exports a wrapper ladder: %s (keep one context-first entry point)", dir, p)
		}
	}
}

// TestPassEntryPointsTakeContextFirst pins the single entry point of every
// long-running pass to a context.Context first parameter, and keeps the
// retired flows.Verify family (superseded by VerifyVerdict) from returning.
func TestPassEntryPointsTakeContextFirst(t *testing.T) {
	entry := map[string][]string{
		"internal/flows":     {"ScriptDelay", "RetimeCombOpt", "Resynthesis", "RunAll", "RunFlow", "VerifyVerdict"},
		"internal/retime":    {"MinPeriod", "MinAreaUnderPeriod", "Graph.MinPeriodLags", "Apply"},
		"internal/mapper":    {"MapDelay"},
		"internal/reach":     {"Analyze"},
		"internal/algebraic": {"OptimizeDelay"},
		"internal/core":      {"Resynthesize", "ResynthesizeIterate"},
		"internal/seqverify": {"Equivalent", "Check"},
	}
	retired := map[string][]string{"internal/flows": {"Verify", "VerifyCtx", "VerifyCfg"}}
	pkgs := parseInternal(t)
	for dir, names := range entry {
		decls := funcDecls(pkgs[dir])
		for _, name := range names {
			fd, ok := decls[name]
			if !ok {
				t.Errorf("%s: entry point %s not found", dir, name)
				continue
			}
			if !contextFirst(fd) {
				t.Errorf("%s: %s must take ctx context.Context as its first parameter", dir, name)
			}
		}
	}
	for dir, names := range retired {
		decls := funcDecls(pkgs[dir])
		for _, name := range names {
			if _, ok := decls[name]; ok {
				t.Errorf("%s: %s is retired; use the single entry point instead", dir, name)
			}
		}
	}
}

// funcDecls indexes a package's exported functions as "Name" and its
// exported methods as "Type.Name".
func funcDecls(files []*ast.File) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				out[receiverName(fd)+fd.Name.Name] = fd
			}
		}
	}
	return out
}

// contextFirst reports whether fd's first parameter is a context.Context.
func contextFirst(fd *ast.FuncDecl) bool {
	ps := fd.Type.Params.List
	if len(ps) == 0 {
		return false
	}
	sel, ok := ps[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

// TestWrapperPairsDetector checks the detector itself on synthetic source.
func TestWrapperPairsDetector(t *testing.T) {
	const src = `package p
func Analyze() {}
func AnalyzeT() {}
func MapDelay() {}
func MapDelayCtx() {}
func CanonTT() {}
func Run() {}
func runCtx() {}
type G struct{}
func (g *G) Lags() {}
func (g *G) LagsCtx() {}
func (g G) Period() {}
func PeriodT() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(wrapperPairs([]*ast.File{f}), "; ")
	want := "Analyze / AnalyzeT; G.Lags / G.LagsCtx; MapDelay / MapDelayCtx"
	if got != want {
		t.Fatalf("wrapperPairs = %q, want %q", got, want)
	}
}

// TestSingleBenchmarkHarness keeps perfbench the only benchmark harness:
// no non-test Go source outside perfbench/ may mention a BENCH_ report
// file, the artifact family of the retired side harnesses.
func TestSingleBenchmarkHarness(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "perfbench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(src), "BENCH_") {
			t.Errorf("%s mentions BENCH_: benchmark reports belong to perfbench", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
