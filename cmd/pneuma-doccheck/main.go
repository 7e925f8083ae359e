// Command pneuma-doccheck is the documentation gate behind `make docs`: it
// fails (exit 1) if any exported top-level symbol — function, method,
// type, constant or variable — in the given package directories lacks a
// doc comment, or if a package lacks a package comment entirely.
//
//	pneuma-doccheck ./internal/retriever ./internal/ir .
//
// A const/var/type block counts as documented if either the block or the
// individual spec carries a comment, matching what godoc renders. Test
// files are skipped.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: pneuma-doccheck <pkgdir> [pkgdir...]")
		os.Exit(2)
	}
	var missing []string
	for _, dir := range os.Args[1:] {
		m, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pneuma-doccheck:", err)
			os.Exit(2)
		}
		missing = append(missing, m...)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "pneuma-doccheck: %d exported symbol(s) lack doc comments:\n", len(missing))
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, "  "+m)
		}
		os.Exit(1)
	}
}

// checkDir parses one package directory and returns one entry per
// undocumented exported symbol, formatted as "file:line: name".
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			missing = append(missing, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		for name, f := range pkg.Files {
			for _, decl := range f.Decls {
				missing = append(missing, checkDecl(fset, name, decl)...)
			}
		}
	}
	return missing, nil
}

// checkDecl reports undocumented exported symbols in one top-level
// declaration.
func checkDecl(fset *token.FileSet, file string, decl ast.Decl) []string {
	var missing []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, what))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		// Methods count when the receiver's base type is exported:
		// unexported-receiver methods never surface in godoc.
		if d.Recv != nil && len(d.Recv.List) > 0 {
			base := receiverBase(d.Recv.List[0].Type)
			if base != "" && !ast.IsExported(base) {
				return nil
			}
			if d.Doc == nil {
				report(d.Type.Func, fmt.Sprintf("method (%s).%s", base, d.Name.Name))
			}
			return missing
		}
		if d.Doc == nil {
			report(d.Type.Func, "func "+d.Name.Name)
		}
	case *ast.GenDecl:
		// A comment on the block documents every spec inside it.
		blockDocumented := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && !blockDocumented && s.Doc == nil {
					report(s.Name.NamePos, "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				if blockDocumented || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						report(n.NamePos, "const/var "+n.Name)
					}
				}
			}
		}
	}
	_ = file
	return missing
}

// receiverBase extracts the receiver's base type name ("T" from *T, T, or
// generic instantiations).
func receiverBase(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
