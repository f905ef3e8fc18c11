package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

const (
	experimentsPkgPath = "approxsort/internal/experiments"
	verifyPkgPath      = "approxsort/internal/verify"
)

// Verifygate enforces PR 3's "fail rather than emit an unverified row"
// rule at compile time. Any function in internal/experiments that
// returns a row or report type (a struct declared in the package whose
// name ends in "Row" or "Report" — the shapes the cmd/ harnesses
// serialize) must reach a verify.Check* call: either directly in its
// body (function literals included, so rows built inside parallel.Map
// closures count), or by calling another function in the package that
// does. The closure is computed to a fixpoint, so a sweep like Fig9 is
// covered by the verify.CheckRefineRun inside the leaf RefineAt it fans out to —
// and removing that one call re-flags every sweep above it.
var Verifygate = &Analyzer{
	Name: "verifygate",
	Doc:  "require a verify.Check* call on every experiments function returning serialized rows",
	Run:  runVerifygate,
}

func runVerifygate(pass *Pass) error {
	if pass.PkgPath != experimentsPkgPath {
		return nil
	}

	rowTypes := collectRowTypes(pass)
	if len(rowTypes) == 0 {
		return nil
	}

	// Map every function declaration to the package functions it calls
	// and whether it calls verify.Check* directly.
	type funcInfo struct {
		decl      *ast.FuncDecl
		callees   map[types.Object]bool
		verifying bool
	}
	infos := make(map[types.Object]*funcInfo)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			info := &funcInfo{decl: fd, callees: make(map[types.Object]bool)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeObj(pass, call)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				switch {
				case callee.Pkg().Path() == verifyPkgPath && strings.HasPrefix(callee.Name(), "Check"):
					info.verifying = true
				case callee.Pkg() == pass.Pkg:
					info.callees[callee] = true
				}
				return true
			})
			infos[obj] = info
		}
	}

	// Propagate "verifying" through the in-package call graph until it
	// stabilizes.
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			if info.verifying {
				continue
			}
			for callee := range info.callees {
				if c, ok := infos[callee]; ok && c.verifying {
					info.verifying = true
					changed = true
					break
				}
			}
		}
	}

	for obj, info := range infos {
		if info.verifying {
			continue
		}
		if row := returnsRowType(obj, rowTypes); row != "" {
			pass.Reportf(info.decl.Name.Pos(),
				"%s returns %s but no verify.Check* call guards the row; runs must be audited before their rows are emitted",
				obj.Name(), row)
		}
	}
	return nil
}

// collectRowTypes gathers the package's serialized row/report types: the
// named struct types whose name ends in "Row" or "Report".
func collectRowTypes(pass *Pass) map[*types.TypeName]bool {
	rows := make(map[*types.TypeName]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if !strings.HasSuffix(name, "Row") && !strings.HasSuffix(name, "Report") {
			continue
		}
		if _, ok := tn.Type().Underlying().(*types.Struct); ok {
			rows[tn] = true
		}
	}
	return rows
}

// calleeObj resolves the object a call statically invokes, through plain
// identifiers and selections.
func calleeObj(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// returnsRowType reports the first row type mentioned in fn's results
// (directly, behind a pointer, or as a slice/array element), or "".
func returnsRowType(fn types.Object, rows map[*types.TypeName]bool) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if name := rowTypeIn(sig.Results().At(i).Type(), rows, 0); name != "" {
			return name
		}
	}
	return ""
}

func rowTypeIn(t types.Type, rows map[*types.TypeName]bool, depth int) string {
	if depth > 4 {
		return ""
	}
	switch t := t.(type) {
	case *types.Named:
		if rows[t.Obj()] {
			return t.Obj().Name()
		}
	case *types.Pointer:
		return rowTypeIn(t.Elem(), rows, depth+1)
	case *types.Slice:
		return rowTypeIn(t.Elem(), rows, depth+1)
	case *types.Array:
		return rowTypeIn(t.Elem(), rows, depth+1)
	}
	return ""
}
