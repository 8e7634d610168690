package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
)

// APIDoc keeps the committed API surface honest: every symbol frozen in
// api_surface.txt must carry a doc comment in the root package. The
// api-surface golden test already pins the shape; this analyzer pins
// the words.
var APIDoc = &Analyzer{
	Name: "apidoc",
	Doc:  "undocumented api_surface.txt symbols",
	Run:  runAPIDoc,
}

// declDoc is what the package actually declares for a symbol.
type declDoc struct {
	pos ast.Node
	doc string
}

func runAPIDoc(pass *Pass) {
	if pass.Pkg.Path != pass.Module.Path {
		return
	}
	data, err := os.ReadFile(filepath.Join(pass.Module.Dir, "api_surface.txt"))
	if err != nil {
		// Modules without a committed surface (fixture mini-modules
		// excepted — theirs is mandatory content for the test) have
		// nothing to pin.
		return
	}
	docs := collectDocs(pass.Pkg)
	for _, key := range parseSurface(string(data)) {
		d, ok := docs[key]
		if !ok {
			// Surface drift (symbol gone) is the api-surface golden
			// test's finding, not ours.
			continue
		}
		if strings.TrimSpace(d.doc) == "" {
			pass.Reportf(d.pos.Pos(),
				"%s is part of the committed API surface (api_surface.txt) but has no doc comment", key)
		}
	}
}

// parseSurface extracts symbol keys ("Sort", or "Classes.Class" for a
// method) from the api_surface.txt format: "const X = ...",
// "var X = ...", "func Name(...)", "func (r Recv[T]) Name(...)",
// "type X = alias", and "type X struct {" followed by field lines
// until "}".
func parseSurface(data string) []string {
	var out []string
	inStruct := false
	for _, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if inStruct {
			if line == "}" {
				inStruct = false
			}
			continue
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "const", "var":
			if len(fields) > 1 {
				out = append(out, fields[1])
			}
		case "type":
			if len(fields) > 1 {
				name, _, _ := strings.Cut(fields[1], "[")
				out = append(out, name)
			}
			if strings.HasSuffix(line, "{") {
				inStruct = true
			}
		case "func":
			rest := strings.TrimPrefix(line, "func ")
			if strings.HasPrefix(rest, "(") {
				// Method: func (c Classes[T]) Class(i int) []T
				recv, sig, ok := strings.Cut(rest[1:], ")")
				if !ok {
					continue
				}
				recvFields := strings.Fields(recv)
				recvType := strings.TrimPrefix(recvFields[len(recvFields)-1], "*")
				recvType, _, _ = strings.Cut(recvType, "[")
				name, _, _ := strings.Cut(strings.TrimSpace(sig), "(")
				out = append(out, recvType+"."+name)
			} else {
				name, _, _ := strings.Cut(rest, "(")
				name, _, _ = strings.Cut(name, "[")
				out = append(out, name)
			}
		}
	}
	return out
}

// collectDocs indexes the package's top-level declarations by symbol key
// with their effective doc comment (a grouped decl's doc covers specs
// without their own).
func collectDocs(pkg *Package) map[string]declDoc {
	docs := make(map[string]declDoc)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil && len(d.Recv.List) > 0 {
					if recv := recvTypeName(d.Recv.List[0].Type); recv != "" {
						key = recv + "." + key
					}
				}
				docs[key] = declDoc{pos: d.Name, doc: d.Doc.Text()}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						doc := s.Doc.Text()
						if doc == "" {
							doc = d.Doc.Text()
						}
						docs[s.Name.Name] = declDoc{pos: s.Name, doc: doc}
					case *ast.ValueSpec:
						doc := s.Doc.Text()
						if doc == "" {
							doc = d.Doc.Text()
						}
						for _, name := range s.Names {
							docs[name.Name] = declDoc{pos: name, doc: doc}
						}
					}
				}
			}
		}
	}
	return docs
}

// recvTypeName unwraps a receiver type expression (*T, T[P], T) to its
// base identifier.
func recvTypeName(expr ast.Expr) string {
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
