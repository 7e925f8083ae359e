package pneuma_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestKnobTableMatchesCode holds README's *Knob reference* table to the
// code: the pneuma.With* names it lists are exactly the exported With*
// functions of options.go, and every -flag it names is defined by some
// cmd/*/main.go.
func TestKnobTableMatchesCode(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Knob reference\n")
	if !ok {
		t.Fatal("README.md has no \"## Knob reference\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	inTable := map[string]bool{}
	var tableFlags []string
	code := regexp.MustCompile("`([^`]+)`")
	flagName := regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(line, -1) {
			switch span := m[1]; {
			case strings.HasPrefix(span, "pneuma.With"):
				inTable[strings.TrimPrefix(span, "pneuma.")] = true
			case flagName.MatchString(span):
				tableFlags = append(tableFlags, strings.TrimPrefix(span, "-"))
			}
		}
	}

	fset := token.NewFileSet()
	opts, err := parser.ParseFile(fset, "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	inCode := map[string]bool{}
	for _, d := range opts.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") {
			inCode[fn.Name.Name] = true
		}
	}
	for _, name := range slices.Sorted(maps.Keys(inCode)) {
		if !inTable[name] {
			t.Errorf("options.go exports %s, the knob table does not list pneuma.%s", name, name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(inTable)) {
		if !inCode[name] {
			t.Errorf("the knob table lists pneuma.%s, options.go does not export it", name)
		}
	}

	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("cmd/*/main.go: %v, %v", mains, err)
	}
	var defined []string
	for _, path := range mains {
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
			// flag.Int("name", ...) names the flag first; flag.IntVar(&v,
			// "name", ...) second.
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) > arg {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						defined = append(defined, name)
					}
				}
			}
			return true
		})
	}
	for _, name := range tableFlags {
		if !slices.Contains(defined, name) {
			t.Errorf("the knob table names -%s, no cmd/*/main.go defines it", name)
		}
	}
}
