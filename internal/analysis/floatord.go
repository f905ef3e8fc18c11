package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatordScope is the accounting and verification core where exact
// floating-point comparison is a latent bug: latency/energy sums are
// accumulated in float64 and the verification contract (PR 3) compares
// them under a relative 1e-9 tolerance, never exactly. Service-layer
// packages (internal/server) that use float sentinels
// for request routing are out of scope.
var floatordScope = map[string]bool{
	"approxsort/internal/mem":         true,
	"approxsort/internal/mlc":         true,
	"approxsort/internal/pcm":         true,
	"approxsort/internal/hybrid":      true,
	"approxsort/internal/spintronic":  true,
	"approxsort/internal/core":        true,
	"approxsort/internal/verify":      true,
	"approxsort/internal/experiments": true,
	"approxsort/internal/sortedness":  true,
	"approxsort/internal/stats":       true,
}

// Floatord forbids == and != on floating-point expressions in the
// accounting and verification packages. Accumulated nanos/energy values
// are sums of per-access constants whose association order varies with
// the worker count, so exact equality is both semantically wrong and a
// determinism hazard. Compare integer access counts instead, or use the
// tolerance helpers (verify.closeEnough's rel-1e-9 contract). The rare
// intentional exact comparison — e.g. a helper's fast path — carries a
// per-call `//nolint:floatord // reason`.
var Floatord = &Analyzer{
	Name: "floatord",
	Doc:  "forbid ==/!= on floating-point values in accounting and verification code",
	Run:  runFloatord,
}

func runFloatord(pass *Pass) error {
	if !floatordScope[pass.PkgPath] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			x, y := pass.TypesInfo.Types[bin.X], pass.TypesInfo.Types[bin.Y]
			// Two constants fold at compile time; no runtime comparison
			// happens.
			if x.Value != nil && y.Value != nil {
				return true
			}
			if isFloat(x.Type) || isFloat(y.Type) {
				pass.Reportf(bin.OpPos,
					"%s on floating-point values; compare integer counts or use a rel-1e-9 tolerance helper", bin.Op)
			}
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
