package tind_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
)

// TestDocumentedFlagsExist fails on a backticked span in README.md or
// DESIGN.md whose first word is a flag that no command registers — a
// flag renamed or removed in the code but not in the docs.
func TestDocumentedFlagsExist(t *testing.T) {
	flags := registeredFlags(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fence.ReplaceAllString(string(raw), "")
		unknown := map[string]bool{}
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			words := strings.Fields(m[1])
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
