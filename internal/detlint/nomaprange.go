package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoMapRange flags `range` over map-typed values in deterministic
// packages. Go randomizes map iteration order, so any map range whose
// effect can reach simulation output (a float sum, a report line, a
// scheduling decision) is a nondeterminism hazard.
//
// One shape is recognized as safe and not flagged: a loop whose body does
// nothing but append the key to one slice, where that slice is passed to
// a sort call (sort.Ints, sort.Strings, sort.Slice, slices.Sort, ...)
// later in the same block — the canonical collect-keys-then-sort idiom.
// Anything else needs either a rewrite over sorted keys or a
// //detlint:ignore nomaprange <reason> suppression.
var NoMapRange = &Analyzer{
	Name: "nomaprange",
	Doc:  "no ranging over maps in deterministic packages unless keys are collected and sorted",
	Run:  runNoMapRange,
}

func runNoMapRange(pass *Pass) {
	if !pass.Deterministic() {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		// Statement lists are visited before the statements in them, so
		// each range loop's verdict is in sorted before the loop itself
		// is reached.
		sorted := make(map[*ast.RangeStmt]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			case *ast.RangeStmt:
				t := info.TypeOf(n.X)
				if t == nil || sorted[n] {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"range over map %s: iteration order is nondeterministic; iterate sorted keys or add //detlint:ignore nomaprange <reason>",
						types.TypeString(t, types.RelativeTo(pass.Pkg.Types)))
				}
			}
			for i, st := range list {
				if rs, ok := st.(*ast.RangeStmt); ok && isSortedKeyCollection(info, rs, list[i+1:]) {
					sorted[rs] = true
				}
			}
			return true
		})
	}
}

// isSortedKeyCollection reports whether rs is the safe collect-then-sort
// idiom: the body only appends the key variable to a single slice
// (conditions and continue are allowed; anything with other effects is
// not), and a statement after the loop in the same block sorts that
// slice (after is the rest of the loop's statement list).
func isSortedKeyCollection(info *types.Info, rs *ast.RangeStmt, after []ast.Stmt) bool {
	keyID, ok := rs.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return false
	}
	keyObj := info.ObjectOf(keyID)
	if keyObj == nil {
		return false
	}
	var target types.Object
	var checkStmt func(st ast.Stmt) bool
	checkBlock := func(b *ast.BlockStmt) bool {
		for _, st := range b.List {
			if !checkStmt(st) {
				return false
			}
		}
		return true
	}
	checkStmt = func(st ast.Stmt) bool {
		switch s := st.(type) {
		case *ast.AssignStmt:
			// Must be exactly `t = append(t, key)`.
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 || s.Tok != token.ASSIGN {
				return false
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || call.Ellipsis != token.NoPos || len(call.Args) != 2 {
				return false
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" {
				return false
			}
			if _, isBuiltin := info.ObjectOf(fn).(*types.Builtin); !isBuiltin {
				return false
			}
			arg0, ok := call.Args[0].(*ast.Ident)
			if !ok || info.ObjectOf(arg0) != info.ObjectOf(lhs) {
				return false
			}
			arg1, ok := call.Args[1].(*ast.Ident)
			if !ok || info.ObjectOf(arg1) != keyObj {
				return false
			}
			tobj := info.ObjectOf(lhs)
			if target == nil {
				target = tobj
			} else if target != tobj {
				return false
			}
			return true
		case *ast.IfStmt:
			// The guard may read the value variable (e.g. `if w > 0`);
			// only the statement shapes inside are constrained.
			if s.Init != nil || !checkBlock(s.Body) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
				return true
			case *ast.BlockStmt:
				return checkBlock(e)
			case *ast.IfStmt:
				return checkStmt(e)
			default:
				return false
			}
		case *ast.BranchStmt:
			// continue keeps the collected set order-independent; break
			// would make it depend on which keys came first.
			return s.Tok == token.CONTINUE
		case *ast.EmptyStmt:
			return true
		case *ast.BlockStmt:
			return checkBlock(s)
		default:
			return false
		}
	}
	if !checkBlock(rs.Body) || target == nil {
		return false
	}
	return sortedAfter(info, after, target)
}

// sortCalls maps qualified sort functions to "sorts its first argument".
var sortCalls = map[string]map[string]bool{
	"sort": {
		"Ints": true, "Strings": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether one of the statements after sorts target.
func sortedAfter(info *types.Info, after []ast.Stmt, target types.Object) bool {
	for _, st := range after {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortCalls[importedPath(info, sel)][sel.Sel.Name] {
			continue
		}
		arg := call.Args[0]
		// Unwrap a sort-interface conversion like sort.Sort(byX(ks)).
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			arg = conv.Args[0]
		}
		if id, ok := arg.(*ast.Ident); ok && info.ObjectOf(id) == target {
			return true
		}
	}
	return false
}
