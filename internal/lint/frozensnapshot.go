package lint

import (
	"go/ast"
	"go/types"
)

// FrozenSnapshot enforces the immutability contract behind the lock-free
// read path (PR 4): a quadtree.Snapshot, once built, is shared by the
// epoch/snapshot publisher with any number of concurrently-running
// predictors, with no lock anywhere. The same holds for core's epochState,
// the cell the publisher's atomic pointer points at: re-publication must
// build a fresh value, never update the current one in place. Writing
// through either type is a data race the type system cannot see — Go
// happily lets the owning package assign to unexported fields — and the
// race detector only catches it when a test happens to interleave the
// write with a read.
//
// The rule flags, module-wide:
//
//   - assignments (including op-assign and ++/--) whose left-hand side
//     reaches through a value of a frozen type, e.g. s.nodeCount = 1 or
//     s.a.nodes[i].sum += x;
//   - writes through a pointer to a whole frozen value, *s = Snapshot{...};
//   - calls of the arena's mutating methods rooted at a frozen value,
//     e.g. s.a.addChild(...) — mutation by method is still mutation.
//
// Construction via composite literal (&Snapshot{...}, &epochState{...}) is
// untouched: freezing starts after the value exists. Laundering a field
// address through a local pointer first (nd := &s.a.nodes[i]; nd.sum = x)
// is beyond a syntactic rule's reach; the write sites this analyzer does
// see are the ones refactors actually produce. Genuinely safe writes —
// e.g. inside a constructor building a not-yet-published value — carry
// //lint:ignore frozensnapshot <reason> at the site.
type FrozenSnapshot struct{}

func (FrozenSnapshot) Name() string { return "frozensnapshot" }
func (FrozenSnapshot) Doc() string {
	return "published snapshots are immutable: no writes through quadtree.Snapshot or core.epochState"
}

// frozenTypes lists the named types whose reachable state is frozen after
// construction, by defining package.
var frozenTypes = map[string]map[string]bool{
	"mlq/internal/quadtree": {"Snapshot": true},
	"mlq/internal/core":     {"epochState": true},
}

// arenaMutators are the arena methods that write. Invoking one through a
// frozen root mutates shared state just as surely as a field assignment.
var arenaMutators = map[string]bool{
	"addChild":    true,
	"release":     true,
	"add":         true,
	"compactKids": true,
	"tidyKids":    true,
	"pack":        true,
	"restamp":     true,
}

func (FrozenSnapshot) Run(pkg *Package) []Finding {
	if !isInternal(pkg) {
		return nil
	}
	var out []Finding
	report := func(pos ast.Node, what string) {
		out = append(out, finding(pkg, "frozensnapshot", pos.Pos(),
			"%s reaches through a frozen type (published snapshots are immutable; build a fresh value instead)", what))
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if frozenChain(pkg, lhs) {
						report(lhs, "assignment")
					}
				}
			case *ast.IncDecStmt:
				if frozenChain(pkg, st.X) {
					report(st.X, "increment/decrement")
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr)
				if !ok || !arenaMutators[sel.Sel.Name] {
					return true
				}
				if fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func); fn == nil {
					return true // conversion or function-typed field, not a method
				}
				if frozenChain(pkg, sel.X) {
					report(st, "mutating arena method call")
				}
			}
			return true
		})
	}
	return out
}

// frozenChain reports whether expr is an access path (selector, index,
// dereference) any step of which has a frozen type. A bare identifier is
// never a violation: rebinding a variable that merely holds a snapshot
// does not write the snapshot.
func frozenChain(pkg *Package, expr ast.Expr) bool {
	first := true
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			first = false
			expr = e.X
		case *ast.IndexExpr:
			first = false
			expr = e.X
		case *ast.StarExpr:
			first = false
			expr = e.X
		default:
			if first {
				return false
			}
			return isFrozenType(typeOf(pkg, expr))
		}
		if !first && isFrozenType(typeOf(pkg, expr)) {
			return true
		}
	}
}

func typeOf(pkg *Package, expr ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[expr]; ok {
		return tv.Type
	}
	return nil
}

// isFrozenType unwraps pointers and reports whether the named type is in
// the frozen list.
func isFrozenType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return frozenTypes[named.Obj().Pkg().Path()][named.Obj().Name()]
}
