package layout

import (
	"fmt"

	"offchip/internal/ir"
	"offchip/internal/linalg"
)

// The paper's implementation is a source-to-source translator: the pass
// rewrites every optimized array reference into the strip-mined/permuted
// form of Figure 9(c). This file produces that rewritten form as an
// explicit expression tree — integer division and modulo by constants over
// affine bases — which both renders as source text and evaluates to the
// same byte offset as the runtime remapping ArrayLayout.Offset (the
// equivalence is tested property-style; a data transformation is a
// renaming, and the symbolic and table-driven views must agree exactly).

// ExprOp is the operator of a rewrite expression node.
type ExprOp int

// Expression operators.
const (
	OpAffine ExprOp = iota // affine leaf over the loop variables
	OpDiv                  // X / C (integer division, C > 0)
	OpMod                  // X % C (mathematical modulo, C > 0)
	OpMulC                 // X * C
	OpAdd                  // A + B
	OpTable                // Table[X] (the shared-L2 home-bank map)
)

// Expr is a subscript expression of a customized reference.
type Expr struct {
	Op    ExprOp
	Lin   ir.LinExpr // OpAffine
	X     *Expr      // OpDiv, OpMod, OpMulC, OpTable operand
	A, B  *Expr      // OpAdd operands
	C     int64      // OpDiv, OpMod, OpMulC constant
	Table []int64    // OpTable contents
}

func affine(l ir.LinExpr) *Expr      { return &Expr{Op: OpAffine, Lin: l} }
func div(x *Expr, c int64) *Expr     { return &Expr{Op: OpDiv, X: x, C: c} }
func mod(x *Expr, c int64) *Expr     { return &Expr{Op: OpMod, X: x, C: c} }
func mulc(x *Expr, c int64) *Expr    { return &Expr{Op: OpMulC, X: x, C: c} }
func add(a, b *Expr) *Expr           { return &Expr{Op: OpAdd, A: a, B: b} }
func table(x *Expr, t []int64) *Expr { return &Expr{Op: OpTable, X: x, Table: t} }

// Eval evaluates the expression under a loop-variable environment.
func (e *Expr) Eval(env map[string]int64) int64 {
	switch e.Op {
	case OpAffine:
		return e.Lin.Eval(env)
	case OpDiv:
		return linalg.FloorDiv(e.X.Eval(env), e.C)
	case OpMod:
		return linalg.Mod(e.X.Eval(env), e.C)
	case OpMulC:
		return e.X.Eval(env) * e.C
	case OpAdd:
		return e.A.Eval(env) + e.B.Eval(env)
	case OpTable:
		i := e.X.Eval(env)
		if i < 0 {
			i = 0
		}
		if i >= int64(len(e.Table)) {
			i = int64(len(e.Table)) - 1
		}
		return e.Table[i]
	default:
		panic(fmt.Sprintf("layout: unknown expr op %d", e.Op))
	}
}

// String renders the expression in Figure 9(c) style.
func (e *Expr) String() string {
	switch e.Op {
	case OpAffine:
		return e.Lin.String()
	case OpDiv:
		return fmt.Sprintf("(%s)/%d", e.X, e.C)
	case OpMod:
		return fmt.Sprintf("(%s)%%%d", e.X, e.C)
	case OpMulC:
		return fmt.Sprintf("%d*(%s)", e.C, e.X)
	case OpAdd:
		return fmt.Sprintf("%s+%s", e.A, e.B)
	case OpTable:
		return fmt.Sprintf("H[%s]", e.X)
	default:
		return "?"
	}
}

// CustomRef is one rewritten array reference: the customized array shape
// and one subscript expression per new dimension.
type CustomRef struct {
	Array   *ir.Array
	NewDims []int64
	Subs    []*Expr
}

// String renders the reference, e.g. Z”[(j)/32][R][…].
func (cr *CustomRef) String() string {
	out := cr.Array.Name + "''"
	for _, s := range cr.Subs {
		out += fmt.Sprintf("[%s]", s)
	}
	return out
}

// Offset evaluates the byte offset the rewritten reference addresses under
// the loop environment (row-major over NewDims).
func (cr *CustomRef) Offset(env map[string]int64, elemSize int64) int64 {
	var lin int64
	for d, s := range cr.Subs {
		lin = lin*cr.NewDims[d] + s.Eval(env)
	}
	return lin * elemSize
}

// ErrNotClosedForm reports why a reference has no closed-form rewrite.
type ErrNotClosedForm struct{ Reason string }

func (e *ErrNotClosedForm) Error() string {
	return "layout: no closed-form rewrite: " + e.Reason
}

// RewriteRef rewrites an affine reference to an optimized array into its
// customized closed form. It requires the partition dimension to divide
// evenly into the per-thread data blocks (newDims[0] == b·threads); uneven
// tails fall back to the table-driven remap and return ErrNotClosedForm
// (padding, Section 5.3, normally guarantees even division).
func (al *ArrayLayout) RewriteRef(r *ir.Ref) (*CustomRef, error) {
	if !al.Optimized {
		return nil, &ErrNotClosedForm{"array not optimized"}
	}
	if r.Indexed() {
		return nil, &ErrNotClosedForm{"indexed reference"}
	}
	if al.cm == nil || al.threads <= 0 {
		return nil, &ErrNotClosedForm{"layout lacks mapping context"}
	}
	if al.newDims[0]%al.b != 0 || al.newDims[0]/al.b != int64(al.threads) {
		return nil, &ErrNotClosedForm{
			fmt.Sprintf("partition dim %d does not divide into %d blocks of %d",
				al.newDims[0], al.threads, al.b)}
	}
	if al.threads != al.cm.MeshX*al.cm.MeshY {
		return nil, &ErrNotClosedForm{"threads do not match mesh (multi-threads-per-core layouts reuse core blocks)"}
	}

	// Step 1 (Figure 9(b)): apply U and the bounding-box shift to get the
	// transformed affine subscripts a' = U·r + shift.
	lins := al.TransformedSubs(r)
	for d := range lins {
		lins[d] = lins[d].Plus(ir.ConstExpr(al.shift[d]))
	}
	n := len(lins)

	// pos = rowRank(a'₀)·rowSize + Σ a'_d·stride_d.
	r0 := affine(lins[0])
	inRow := ir.ConstExpr(0)
	for d := 1; d < n; d++ {
		inRow = inRow.Plus(lins[d].Scaled(al.strides[d-1]))
	}

	// Owner thread and its position in the mesh/cluster grids.
	t := div(r0, al.b)
	mx := al.cm.MeshX
	tw, th := mx/al.cm.ClustersX, al.cm.MeshY/al.cm.ClustersY
	x := mod(t, int64(mx))
	y := div(t, int64(mx))

	var group *Expr // cluster ordinal (private) or home bank (shared)
	if al.homeOf != nil {
		homes := make([]int64, len(al.homeOf))
		for i, h := range al.homeOf {
			homes[i] = int64(h)
		}
		group = table(t, homes)
	} else {
		// ord = (x/tw) + cx·(y/th): the R(r_v) grid arithmetic of §5.3.
		group = add(div(x, int64(tw)), mulc(div(y, int64(th)), int64(al.cm.ClustersX)))
	}

	// Dense row rank within the group. Private L2: a cluster's rows are
	// its threads' blocks in thread-ID order (row-major within the tile),
	// so rank = (tw·(y%th) + x%tw)·b + r0%b. Shared L2: each home bank
	// holds exactly one thread's rows (the assignment is a permutation),
	// so rank = r0%b.
	var rank *Expr
	if al.homeOf != nil {
		rank = mod(r0, al.b)
	} else {
		local := add(mod(x, int64(tw)), mulc(mod(y, int64(th)), int64(tw)))
		rank = add(mulc(local, al.b), mod(r0, al.b))
	}
	pos := add(mulc(rank, al.rowSize), affine(inRow))

	maxQ := al.sizeBytes / al.elemSize / al.grain / int64(al.groups)
	return &CustomRef{
		Array:   r.Array,
		NewDims: []int64{maxQ, int64(al.groups), al.grain},
		Subs:    []*Expr{div(pos, al.grain), group, mod(pos, al.grain)},
	}, nil
}
