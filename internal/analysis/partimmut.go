package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PartImmut enforces the immutability that makes run-wide partition
// sharing sound: a *partition.Partition interned into the partition
// cache is handed out to the lattice traversal, the approximate pass,
// and the post-traversal verification without copying, so a write to
// its fields after construction corrupts every other reader (Yu &
// Jagadish's partition reuse assumes frozen partitions). Two rules:
//
//   - Partition immutability: assignments to Partition fields (or
//     through them, e.g. p.NRows = n, or *p = ...), and index writes
//     on the group views Partition.Group returns, are allowed only
//     inside the internal/partition package's constructors — functions
//     whose results include a Partition. A view write is caught when
//     it indexes the call itself (p.Group(i)[j] = x) or a variable
//     assigned from it (g := p.Group(i); g[j] = x). A view that is
//     resliced first, or handed to a callee that writes it
//     (slices.Sort(p.Group(i))), is not tracked.
//
//   - Cache locality: fields of the cache types (partitionCache,
//     relPartitions) may be written only in the file that declares
//     them (pcache.go), which is where the concurrency and accounting
//     contracts live.
var PartImmut = &Analyzer{
	Name:      "partimmut",
	Directive: "partimmut",
	Doc:       "flag writes to Partition fields outside internal/partition constructors and cache-state writes outside the cache's declaring file",
	Run:       runPartImmut,
}

// cacheTypes are the partition-cache types whose state must only be
// mutated in their declaring file.
var cacheTypes = []string{"partitionCache", "relPartitions"}

func runPartImmut(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		// views holds the variables assigned a Partition.Group view so
		// far; a variable once bound to a view stays one.
		views := make(map[types.Object]bool)
		inspectStack(f, func(stack []ast.Node, n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					pass.checkWrite(stack, lhs, views)
					if id, ok := lhs.(*ast.Ident); ok && len(n.Rhs) == len(n.Lhs) && pass.isGroupCall(n.Rhs[i]) {
						views[pass.Info.ObjectOf(id)] = true
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if i < len(n.Values) && pass.isGroupCall(n.Values[i]) {
						views[pass.Info.ObjectOf(id)] = true
					}
				}
			case *ast.IncDecStmt:
				pass.checkWrite(stack, n.X, views)
			}
			return true
		})
	}
}

// checkWrite walks an assignment target down to its base and reports
// forbidden Partition-field and cache-field writes.
func (p *Pass) checkWrite(stack []ast.Node, lhs ast.Expr, views map[types.Object]bool) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			// p.Group(i)[j] = x writes into the partition's own rows.
			base := ast.Unparen(e.X)
			if id, ok := base.(*ast.Ident); (ok && views[p.Info.ObjectOf(id)]) || p.isGroupCall(base) {
				p.reportPartitionWrite(stack, e.Pos(), "write through Partition.Group")
				return
			}
			lhs = e.X
		case *ast.StarExpr:
			// *p = Partition{...} overwrites the shared struct wholesale.
			if t := p.Info.TypeOf(e.X); t != nil && isNamed(t, "internal/partition", "Partition") {
				p.reportPartitionWrite(stack, e.Pos(), "whole-struct overwrite of a shared Partition")
			}
			lhs = e.X
		case *ast.SelectorExpr:
			sel, ok := p.Info.Selections[e]
			if !ok || sel.Kind() != types.FieldVal {
				lhs = e.X
				continue
			}
			recv := sel.Recv()
			switch {
			case isNamed(recv, "internal/partition", "Partition"):
				p.reportPartitionWrite(stack, e.Pos(), "write to Partition."+e.Sel.Name)
			case p.isCacheType(recv):
				p.reportCacheWrite(recv, e)
			}
			lhs = e.X
		default:
			return
		}
	}
}

// isGroupCall reports whether x is a call of Partition.Group.
func (p *Pass) isGroupCall(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Group" {
		return false
	}
	s, ok := p.Info.Selections[sel]
	return ok && s.Kind() == types.MethodVal && isNamed(s.Recv(), "internal/partition", "Partition")
}

// reportPartitionWrite flags a Partition-field write unless it occurs
// inside one of the partition package's constructors.
func (p *Pass) reportPartitionWrite(stack []ast.Node, pos token.Pos, what string) {
	if p.inPartitionConstructor(stack) {
		return
	}
	p.Reportf(pos, "%s outside internal/partition constructors: cached partitions are shared run-wide and must stay immutable", what)
}

// inPartitionConstructor reports whether the innermost enclosing
// function declaration is in the internal/partition package and
// returns a Partition — the shape of every sanctioned builder
// (FromCodes, FromDense, Single, Product, ...).
func (p *Pass) inPartitionConstructor(stack []ast.Node) bool {
	if p.Path != "internal/partition" && !strings.HasSuffix(p.Path, "/internal/partition") {
		return false
	}
	fn := enclosingFunc(stack)
	var ftype *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ftype = fn.Type
	case *ast.FuncLit:
		ftype = fn.Type
	default:
		return false
	}
	if ftype.Results == nil {
		return false
	}
	for _, r := range ftype.Results.List {
		if t := p.Info.TypeOf(r.Type); t != nil && isNamed(t, "internal/partition", "Partition") {
			return true
		}
	}
	return false
}

func (p *Pass) isCacheType(t types.Type) bool {
	for _, name := range cacheTypes {
		if isNamed(t, "internal/core", name) {
			return true
		}
	}
	return false
}

// reportCacheWrite flags a cache-field write outside the file that
// declares the cache type.
func (p *Pass) reportCacheWrite(recv types.Type, e *ast.SelectorExpr) {
	n := namedType(recv)
	declFile := p.Fset.Position(n.Obj().Pos()).Filename
	if p.Fset.Position(e.Pos()).Filename == declFile {
		return
	}
	p.Reportf(e.Pos(), "write to %s.%s outside its declaring file: cache state carries concurrency and accounting contracts that live in pcache.go", n.Obj().Name(), e.Sel.Name)
}
