package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// APIGuardCheck enforces API hygiene in internal/ and pkg/: every exported
// top-level identifier carries a doc comment (the packages are the repo's
// public surface for experiments and examples, and godoc is how the flow is
// navigated), and panic is reserved for functions on the allowlist —
// Must-prefixed helpers and entries in Config.PanicAllow. Algorithm code
// returns errors; a panic in the middle of a multi-hour sweep discards
// every completed trial. In their scoped packages it also applies
// Config.CallBans and the IndexedScanOnly loop rule.
func APIGuardCheck() *Check {
	return &Check{
		Name: "apiguard",
		Doc:  "exported identifiers in internal/ and pkg/ need doc comments; panic is allowlisted",
		Run:  runAPIGuard,
	}
}

func runAPIGuard(cfg *Config, p *Package) []Finding {
	var out []Finding
	// The call bans and the indexed-scan rule are scoped by Config, not by
	// the internal/pkg path gate below, so fixtures and future layouts work.
	for _, ban := range cfg.CallBans {
		if matchesSuffix(p.Path, ban.Scope) {
			for _, file := range p.Files {
				out = append(out, checkCallBan(p, file, ban)...)
			}
		}
	}
	if matchesSuffix(p.Path, cfg.IndexedScanOnly) {
		for _, file := range p.Files {
			out = append(out, checkIndexedScan(p, file)...)
		}
	}
	if !strings.Contains(p.Path, "internal/") && !strings.Contains(p.Path, "pkg/") {
		return out
	}
	for _, file := range p.Files {
		out = append(out, checkDocs(p, file)...)
		out = append(out, checkPanics(cfg, p, file)...)
	}
	return out
}

// checkCallBan flags every call in file whose static callee's full name
// matches ban.Callee. Referencing a function without calling it — a stage
// method value registered into a pipeline.Plan, say — is not a call and
// stays legal.
func checkCallBan(p *Package, file *ast.File, ban CallBan) []Finding {
	var out []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(p, call); fn != nil && ban.Callee.MatchString(fn.FullName()) {
			out = append(out, Finding{
				Check:   "apiguard",
				Pos:     p.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("call to %s: %s", fn.FullName(), ban.Reason),
			})
		}
		return true
	})
	return out
}

// checkIndexedScan flags linear scans over a netlist.Block's Cells slice
// that sit inside another loop, in packages restricted to spatial-index
// queries (Config.IndexedScanOnly). A top-level flat pass — building the
// row buckets, seeding positions, filling the SoA mirrors — is fine; the
// same scan nested in a per-row/per-candidate loop is O(cells) per query
// and turns legalization quadratic. Both `range b.Cells` and counted
// loops bounded by `len(b.Cells)` are caught. Loops inside a nested func
// literal restart at depth zero: a stored callback is not itself a
// per-iteration scan, and the conservative reset avoids false positives
// on sort comparators.
func checkIndexedScan(p *Package, file *ast.File) []Finding {
	var out []Finding
	flag := func(n ast.Node) {
		out = append(out, Finding{
			Check: "apiguard",
			Pos:   p.Fset.Position(n.Pos()),
			Message: "linear scan over Block.Cells inside a loop: legalization/blockage queries must go " +
				"through the spatial index (row CSR buckets, lane SoA, TSV site grid), not rescan every cell",
		})
	}
	var visit func(n ast.Node, depth int)
	visit = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch s := m.(type) {
			case *ast.RangeStmt:
				if depth > 0 && isCellsField(p, s.X) {
					flag(s)
				}
				visit(s.Body, depth+1)
				return false
			case *ast.ForStmt:
				if depth > 0 && s.Cond != nil && condScansCells(p, s.Cond) {
					flag(s)
				}
				visit(s.Body, depth+1)
				return false
			case *ast.FuncLit:
				visit(s.Body, 0)
				return false
			}
			return true
		})
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			visit(fd.Body, 0)
		}
	}
	return out
}

// isCellsField reports whether e selects the Cells field of
// internal/netlist's Block type (any import path ending there, so
// fixtures under testdata work too).
func isCellsField(p *Package, e ast.Expr) bool {
	if pe, ok := e.(*ast.ParenExpr); ok {
		return isCellsField(p, pe.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Cells" {
		return false
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	t := s.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Block" && named.Obj().Pkg() != nil &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/netlist")
}

// condScansCells reports whether a for-loop condition is bounded by
// len(<Block>.Cells) — the counted-loop spelling of a full Cells scan.
func condScansCells(p *Package, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "len" {
			return true
		}
		if _, builtin := p.Info.Uses[id].(*types.Builtin); !builtin {
			return true
		}
		if isCellsField(p, call.Args[0]) {
			found = true
		}
		return true
	})
	return found
}

// checkDocs flags exported top-level declarations without doc comments.
func checkDocs(p *Package, file *ast.File) []Finding {
	var out []Finding
	undocumented := func(kind, name string, pos ast.Node) {
		out = append(out, Finding{
			Check:   "apiguard",
			Pos:     p.Fset.Position(pos.Pos()),
			Message: fmt.Sprintf("exported %s %s has no doc comment", kind, name),
		})
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc.Text() == "" && exportedRecv(d) {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				undocumented(kind, d.Name.Name, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc.Text() == "" && s.Doc.Text() == "" {
						undocumented("type", s.Name.Name, s.Name)
					}
				case *ast.ValueSpec:
					// A leading doc comment on the grouped decl ("// Common
					// constants...") covers every spec in the group;
					// trailing line comments do not count as documentation.
					if d.Doc.Text() != "" || s.Doc.Text() != "" {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							kind := "variable"
							if d.Tok.String() == "const" {
								kind = "constant"
							}
							undocumented(kind, name.Name, name)
						}
					}
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether fd is a plain function or a method whose
// receiver type is itself exported — an exported method name on an
// unexported type (a heap.Interface impl, say) is not API surface and
// godoc does not render it.
func exportedRecv(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return true
	}
	t := fd.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

// checkPanics flags panic calls outside allowlisted functions.
func checkPanics(cfg *Config, p *Package, file *ast.File) []Finding {
	var out []Finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if strings.HasPrefix(fd.Name.Name, "Must") || cfg.panicAllowed(p, fd) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, builtin := p.Info.Uses[id].(*types.Builtin); !builtin {
				return true
			}
			out = append(out, Finding{
				Check:   "apiguard",
				Pos:     p.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("panic in %s: algorithm code must return errors (allowlist Must* helpers only)", fd.Name.Name),
			})
			return true
		})
	}
	return out
}

// panicAllowed reports whether fd matches a Config.PanicAllow entry, which
// is rendered as pkgpath.Func for functions and pkgpath.(*Type).Method or
// pkgpath.Type.Method for methods.
func (cfg *Config) panicAllowed(p *Package, fd *ast.FuncDecl) bool {
	name := p.Path + "." + fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		recv := fd.Recv.List[0].Type
		star := ""
		if se, ok := recv.(*ast.StarExpr); ok {
			star = "*"
			recv = se.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			if star == "*" {
				name = fmt.Sprintf("%s.(*%s).%s", p.Path, id.Name, fd.Name.Name)
			} else {
				name = fmt.Sprintf("%s.%s.%s", p.Path, id.Name, fd.Name.Name)
			}
		}
	}
	for _, a := range cfg.PanicAllow {
		if a == name {
			return true
		}
	}
	return false
}
