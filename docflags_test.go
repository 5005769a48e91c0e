package tind_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// toolchainFlags are the go test flags the docs name; no command of
// this repository registers them.
var toolchainFlags = map[string]bool{"-fuzztime": true, "-race": true}

// registeredFlags returns every flag name that some cmd/*/main.go
// registers on the default flag set: the string literal naming the flag
// in a flag.X(name, ...) or flag.XVar(p, name, ...) call.
func registeredFlags(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cmd/*/main.go found (err %v)", err)
	}
	flags := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg := 0
			switch sel.Sel.Name {
			case "Bool", "Duration", "Float64", "Func", "BoolFunc", "Int", "Int64", "String", "Uint", "Uint64":
			case "BoolVar", "DurationVar", "Float64Var", "IntVar", "Int64Var", "StringVar", "TextVar", "UintVar", "Uint64Var", "Var":
				arg = 1
			default:
				return true
			}
			if len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags["-"+name] = true
				}
			}
			return true
		})
	}
	return flags
}

var (
	// fence matches a fenced code block; its contents are shell sessions,
	// not backticked spans.
	fence = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	// codeSpan matches one inline backticked span, which may wrap a line.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// flagWord matches a first word shaped like a command-line flag,
	// capturing the name without any =value.
	flagWord = regexp.MustCompile(`^(-[a-zA-Z][a-zA-Z0-9.-]*)(=.*)?$`)
	// metricWord matches a metric name, or the prefix of a family when it
	// ends in an underscore (`tind_persist_`).
	metricWord = regexp.MustCompile(`tind_[a-z0-9_]*`)
)

// docCodeSpans returns the contents of every inline backticked span of a
// doc, fenced blocks left out.
func docCodeSpans(t *testing.T, doc string) []string {
	t.Helper()
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, m := range codeSpan.FindAllStringSubmatch(fence.ReplaceAllString(string(raw), ""), -1) {
		spans = append(spans, m[1])
	}
	return spans
}

// TestDocumentedFlagsExist fails on a backticked span in README.md or
// DESIGN.md whose first word is a flag that no command registers — a
// flag renamed or removed in the code but not in the docs.
func TestDocumentedFlagsExist(t *testing.T) {
	flags := registeredFlags(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		unknown := map[string]bool{}
		for _, span := range docCodeSpans(t, doc) {
			words := strings.Fields(span)
			if len(words) == 0 {
				continue
			}
			w := flagWord.FindStringSubmatch(words[0])
			if w == nil || flags[w[1]] || toolchainFlags[w[1]] {
				continue
			}
			unknown[w[1]] = true
		}
		var names []string
		for name := range unknown {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Errorf("%s: `%s` is registered by no cmd/*/main.go", doc, name)
		}
	}
}

// metricLiterals returns every string literal starting with "tind_" in the
// non-test Go files under cmd/ and internal/: the metric names, and the
// family prefixes the code filters by.
func metricLiterals(t *testing.T) []string {
	t.Helper()
	var lits []string
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(v, "tind_") {
						lits = append(lits, v)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(lits) == 0 {
		t.Fatal("no tind_ string literal under cmd/ or internal/")
	}
	return lits
}

// TestDocumentedMetricsExist fails on a backticked tind_… name in README.md
// or DESIGN.md that no Go source under cmd/ or internal/ spells — a metric
// renamed or removed in the code but not in the docs. A histogram's
// _bucket, _sum and _count series count as the histogram; a name ending
// in an underscore is a family prefix, and needs one literal it starts.
func TestDocumentedMetricsExist(t *testing.T) {
	lits := metricLiterals(t)
	known := map[string]bool{}
	for _, l := range lits {
		known[l] = true
	}
	exists := func(name string) bool {
		if strings.HasSuffix(name, "_") {
			for _, l := range lits {
				if strings.HasPrefix(l, name) {
					return true
				}
			}
			return false
		}
		for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && known[base] {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		unknown := map[string]bool{}
		for _, span := range docCodeSpans(t, doc) {
			for _, name := range metricWord.FindAllString(span, -1) {
				if !exists(name) {
					unknown[name] = true
				}
			}
		}
		var names []string
		for name := range unknown {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Errorf("%s: `%s` is spelled by no Go source under cmd/ or internal/", doc, name)
		}
	}
}
