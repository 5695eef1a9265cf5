package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CopyLockAnalyzer is the mutex/atomic hygiene check, in two parts:
//
//  1. by-value copies of structs holding sync.* or sync/atomic.* state
//     (assignment from an existing value, call arguments, value receivers,
//     returns, and range clauses) — a copied mutex guards nothing and a
//     copied atomic forks its value; the engine's runState (its shared
//     claim counter) and the progress-boundary tracker are exactly the
//     structs this bites. Fresh composite literals are fine: a value that
//     has never been shared can be moved.
//
//  2. mixed atomic/plain access to one field: a field passed by address to
//     a sync/atomic function anywhere in the package must never also be
//     read or written directly — the plain access races the atomic one.
//
// Typed atomics (atomic.Int64 & friends) make class 2 impossible and are
// the house style; class 1 still applies to them.
var CopyLockAnalyzer = &Analyzer{
	Name:      "copylock",
	Doc:       "flag by-value copies of sync/atomic-bearing structs and mixed atomic/plain access to one field",
	NeedTypes: true,
	Run:       runCopyLock,
}

func runCopyLock(pass *Pass) error {
	seen := make(map[types.Type]bool)
	var containsLock func(t types.Type) bool
	containsLock = func(t types.Type) bool {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if named, ok := t.(*types.Named); ok {
				obj := named.Obj()
				if obj.Pkg() != nil {
					switch obj.Pkg().Path() {
					case "sync":
						// sync.Once, Mutex, RWMutex, WaitGroup, Map, Pool, Cond
						// all pin their address; sync.Locker is an interface and
						// never reaches here.
						return true
					case "sync/atomic":
						return true
					}
				}
			}
			if seen[t] {
				return false // cycle: being decided higher up the stack
			}
			seen[t] = true
			defer delete(seen, t)
			for i := 0; i < u.NumFields(); i++ {
				if containsLock(u.Field(i).Type()) {
					return true
				}
			}
		case *types.Array:
			return containsLock(u.Elem())
		}
		return false
	}

	report := func(pos token.Pos, what string, t types.Type) {
		pass.Reportf(pos, "%s copies %s, which holds sync/atomic state: a copied lock guards nothing and a copied atomic forks its value; share a pointer instead", what, types.TypeString(t, types.RelativeTo(pass.Pkg)))
	}

	// copiesLockValue: expr yields a lock-containing value that already
	// exists elsewhere (so assigning/passing it duplicates live state).
	// Composite literals, conversions of literals, and function calls
	// (whose result is a fresh value the callee chose to return by value)
	// are not flagged at the use site.
	copiesLockValue := func(e ast.Expr) (types.Type, bool) {
		switch e.(type) {
		case *ast.CompositeLit, *ast.CallExpr:
			return nil, false
		case *ast.UnaryExpr, *ast.BinaryExpr:
			return nil, false
		}
		t := pass.TypesInfo.TypeOf(e)
		if t == nil || !containsLock(t) {
			return nil, false
		}
		return t, true
	}

	// atomicFields[field] = position of one atomic access, for class 2.
	atomicFields := make(map[*types.Var]token.Pos)
	plainAccess := make(map[*types.Var][]token.Pos)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					// Assigning to _ discards the value: no live copy is made.
					if len(n.Lhs) == len(n.Rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
							continue
						}
					}
					if t, bad := copiesLockValue(rhs); bad {
						report(rhs.Pos(), "assignment", t)
					}
				}
			case *ast.ValueSpec:
				for _, val := range n.Values {
					if t, bad := copiesLockValue(val); bad {
						report(val.Pos(), "variable declaration", t)
					}
				}
			case *ast.CallExpr:
				// Class 2 bookkeeping: atomic.AddInt64(&x.f, 1) etc.
				if pkg, name, ok := funcFromPkg(pass, n); ok && pkg == "sync/atomic" && name != "" {
					for _, arg := range n.Args {
						if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
							if v := selectedField(pass, u.X); v != nil {
								atomicFields[v] = u.Pos()
							}
						}
					}
					return true
				}
				for _, arg := range n.Args {
					if t, bad := copiesLockValue(arg); bad {
						report(arg.Pos(), "call argument", t)
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if t, bad := copiesLockValue(res); bad {
						report(res.Pos(), "return statement", t)
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := pass.TypesInfo.TypeOf(n.Value); t != nil && containsLock(t) {
						report(n.Value.Pos(), "range clause", t)
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil && len(n.Recv.List) == 1 {
					rt := pass.TypesInfo.TypeOf(n.Recv.List[0].Type)
					if rt != nil {
						if _, isPtr := rt.Underlying().(*types.Pointer); !isPtr && containsLock(rt) {
							report(n.Recv.List[0].Pos(), "value receiver", rt)
						}
					}
				}
			}
			return true
		})
	}

	// Second walk for class 2 plain accesses, now that atomicFields is
	// complete. Reads through &x.f (address-of, feeding another atomic
	// call) were consumed above and do not count as plain.
	if len(atomicFields) > 0 {
		for _, f := range pass.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				v := selectedField(pass, sel)
				if v == nil {
					return true
				}
				if _, isAtomic := atomicFields[v]; !isAtomic {
					return true
				}
				// &x.f — taking the address is how the atomic calls reach the
				// field; only value reads/writes are plain accesses.
				if len(stack) >= 2 {
					if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.Op == token.AND {
						return true
					}
				}
				plainAccess[v] = append(plainAccess[v], sel.Pos())
				return true
			})
		}
		for v, atomicPos := range atomicFields {
			for _, pos := range plainAccess[v] {
				pass.Reportf(pos,
					"plain access to field %s, which is also accessed atomically (%s): mixed atomic/plain access races; use the atomic API everywhere or a typed atomic",
					v.Name(), pass.Fset.Position(atomicPos))
			}
		}
	}
	return nil
}

// selectedField resolves expr to the struct field it selects, if any.
func selectedField(pass *Pass, expr ast.Expr) *types.Var {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}
