package par

import "pathcover/internal/pram"

// Tree contraction (Abrahamson–Dadoun–Kirkpatrick–Przytycka style) for
// expression evaluation over binary trees, used by Step 3 of the paper to
// evaluate Lin et al.'s recurrence
//
//	p(u) = p(v) + p(w)          at a 0-node
//	p(u) = max(p(v) - L(w), 1)  at a 1-node
//
// for every internal node in O(log n) time and O(n) work.
//
// The unary function class closed under the partial applications of both
// operators is f(x) = max(x + a, b) with saturating a. Raking a leaf
// partially applies its parent's operator and composes the result onto
// the sibling; the rake schedule (odd-numbered left-child leaves, then
// odd-numbered right-child leaves, then renumber) guarantees
// conflict-free parallel rounds. Recording every rake and replaying the
// record backwards recovers the value of every internal node, not just
// the root.

// OpKind identifies the operator at an internal expression node.
type OpKind uint8

const (
	// OpSum combines children as left + right (the 0-node rule).
	OpSum OpKind = iota
	// OpJoinClamp combines children as max(left - C, 1), ignoring the
	// right child's value (the 1-node rule: C = L(w) is a constant of the
	// node, not a child value).
	OpJoinClamp
)

// NodeOp is the operator of one internal node.
type NodeOp struct {
	Kind OpKind
	C    int64
}

const negInf = int64(-1) << 46

func satAdd(a, b int64) int64 {
	s := a + b
	if s < negInf {
		return negInf
	}
	return s
}

// MaxPlus is the unary function f(x) = max(x + A, B). The identity is
// {0, negInf}; constants are {negInf, c}.
type MaxPlus struct{ A, B int64 }

// idMaxPlus is the identity function.
func idMaxPlus() MaxPlus { return MaxPlus{0, negInf} }

// Apply evaluates the function.
func (f MaxPlus) Apply(x int64) int64 {
	v := satAdd(x, f.A)
	if v < f.B {
		return f.B
	}
	return v
}

// then returns g∘f: first f, then g.
func (f MaxPlus) then(g MaxPlus) MaxPlus {
	b := satAdd(f.B, g.A)
	if b < g.B {
		b = g.B
	}
	return MaxPlus{A: satAdd(f.A, g.A), B: b}
}

// partial returns the unary function of the unknown child when the other
// child's value is known.
func partial(op NodeOp, knownLeft bool, known int64) MaxPlus {
	switch op.Kind {
	case OpSum:
		return MaxPlus{A: known, B: negInf}
	case OpJoinClamp:
		if knownLeft {
			// value is already determined: max(known - C, 1)
			v := known - op.C
			if v < 1 {
				v = 1
			}
			return MaxPlus{A: negInf, B: v}
		}
		// function of the left child
		return MaxPlus{A: -op.C, B: 1}
	}
	panic("par: unknown OpKind")
}

// applyOp evaluates an operator on two known children.
func applyOp(op NodeOp, left, right int64) int64 {
	switch op.Kind {
	case OpSum:
		return left + right
	case OpJoinClamp:
		v := left - op.C
		if v < 1 {
			v = 1
		}
		return v
	}
	panic("par: unknown OpKind")
}

type rakeRec[I Ix] struct {
	x, p, sib I
	fx, fs    MaxPlus
	xLeft     bool
}

// EvalTree evaluates the expression tree t — op[v] for internal nodes,
// leafVal[v] for leaves — and returns the value of every node. t must be
// a single binary tree in which every internal node has exactly two
// children. leafRank must number the leaves 0..m-1 left to right (as
// produced by Tour.LeafRanks).
func EvalTree(s *pram.Sim, t BinTree, op []NodeOp, leafVal []int64, leafRank []int) []int64 {
	return EvalTreeIx(s, t, op, leafVal, leafRank)
}

// EvalTreeIx is the width-generic EvalTree (see Ix): the mutable link
// structure and the rake records ride on the narrow width; the
// expression values themselves stay int64.
func EvalTreeIx[I Ix](s *pram.Sim, t BinTreeIx[I], op []NodeOp, leafVal []int64, leafRank []I) []int64 {
	n := t.Len()
	val := pram.Grab[int64](s, n)
	if n == 0 {
		return val
	}
	if s.PreferSequential(n) {
		// Fused sequential route: one post-order sweep evaluates every
		// node exactly (the contraction algebra is exact integer
		// arithmetic, so the values agree bit for bit), and a link-only
		// replay of the rake schedule — whose round structure depends on
		// the tree shape and leaf numbering — re-issues the identical
		// charges.
		evalTreeSeq(s, t, op, leafVal, val)
		chargeEvalTree(s, t, leafRank)
		return val
	}
	// Working copies of the mutable link structure.
	left := pram.GrabNoClear[I](s, n)
	right := pram.GrabNoClear[I](s, n)
	parent := pram.GrabNoClear[I](s, n)
	f := pram.GrabNoClear[MaxPlus](s, n)
	num := pram.Grab[I](s, n)
	isLeaf := pram.GrabNoClear[bool](s, n)
	// isLeft[v] records which side of its parent v hangs on. A rake
	// reads the bits of its own x and p and writes the bit of sib, the
	// node that takes p's place, so no rake reads a link slot another
	// rake of the same sub-round rewrites.
	isLeft := pram.Grab[bool](s, n)
	s.ForCostRange(n, 2, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			left[v], right[v], parent[v] = t.Left[v], t.Right[v], t.Parent[v]
			if l := t.Left[v]; l >= 0 {
				isLeft[l] = true
			}
			f[v] = idMaxPlus()
			isLeaf[v] = t.IsLeaf(v)
			if isLeaf[v] {
				num[v] = leafRank[v] + 1 // 1-based for the odd/even schedule
				val[v] = leafVal[v]
			}
		}
	})
	leaves := IndexPackIx[I](s, isLeaf)

	var rounds [][]rakeRec[I]
	rakeSub := func(wantLeft bool) {
		cand := pram.Grab[bool](s, len(leaves))
		s.ParallelFor(len(leaves), func(k int) {
			x := leaves[k]
			cand[k] = num[x]%2 == 1 && parent[x] >= 0 && isLeft[x] == wantLeft
		})
		sel := PackIx[I](s, leaves, cand)
		pram.Release(s, cand)
		if len(sel) == 0 {
			pram.Release(s, sel)
			return
		}
		recs := pram.GrabNoClear[rakeRec[I]](s, len(sel))
		s.ForCost(len(sel), 4, func(k int) {
			x := sel[k]
			p := parent[x]
			xLeft := isLeft[x]
			var sib I
			if xLeft {
				sib = right[p]
			} else {
				sib = left[p]
			}
			recs[k] = rakeRec[I]{x: x, p: p, sib: sib, fx: f[x], fs: f[sib], xLeft: xLeft}
			// Splice p out: sib takes p's place and side under p's parent.
			g := parent[p]
			if g >= 0 {
				if isLeft[p] {
					left[g] = sib
				} else {
					right[g] = sib
				}
			}
			parent[sib] = g
			isLeft[sib] = isLeft[p]
			a := f[x].Apply(val[x])
			f[sib] = f[sib].then(partial(op[p], xLeft, a)).then(f[p])
		})
		rounds = append(rounds, recs)
		pram.Release(s, sel)
	}

	guard := 2
	for v := 1; v < n; v <<= 1 {
		guard += 2
	}
	for len(leaves) > 1 && guard > 0 {
		guard--
		rakeSub(true)
		rakeSub(false)
		// All odd-numbered leaves are gone; halve the even numbers and
		// compact the leaf set.
		live := pram.Grab[bool](s, len(leaves))
		s.ParallelFor(len(leaves), func(k int) {
			x := leaves[k]
			if num[x]%2 == 0 {
				num[x] /= 2
				live[k] = true
			}
		})
		next := PackIx[I](s, leaves, live)
		pram.Release(s, live)
		pram.Release(s, leaves)
		leaves = next
	}

	// Replay the rakes backwards to assign every internal node its value.
	for r := len(rounds) - 1; r >= 0; r-- {
		recs := rounds[r]
		s.ForCostRange(len(recs), 3, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				rec := recs[k]
				a := rec.fx.Apply(val[rec.x])
				b := rec.fs.Apply(val[rec.sib])
				if rec.xLeft {
					val[rec.p] = applyOp(op[rec.p], a, b)
				} else {
					val[rec.p] = applyOp(op[rec.p], b, a)
				}
			}
		})
		pram.Release(s, recs)
	}
	pram.Release(s, left)
	pram.Release(s, right)
	pram.Release(s, parent)
	pram.Release(s, f)
	pram.Release(s, num)
	pram.Release(s, isLeaf)
	pram.Release(s, isLeft)
	pram.Release(s, leaves)
	return val
}

// evalTreeSeq evaluates the expression forest bottom-up in one
// post-order sweep: the value semantics of the contraction without its
// machinery.
func evalTreeSeq[I Ix](s *pram.Sim, t BinTreeIx[I], op []NodeOp, leafVal []int64, val []int64) {
	n := t.Len()
	order := pram.GrabNoClear[I](s, n)
	stack := pram.GrabNoClear[I](s, n)
	k := n
	for r := 0; r < n; r++ {
		if t.Parent[r] >= 0 {
			continue
		}
		top := 0
		stack[top] = I(r)
		top++
		for top > 0 {
			top--
			v := stack[top]
			k--
			order[k] = v
			if l := t.Left[v]; l >= 0 {
				stack[top] = l
				top++
			}
			if rc := t.Right[v]; rc >= 0 {
				stack[top] = rc
				top++
			}
		}
	}
	// order[k:] is a reverse preorder: children precede parents.
	for _, v := range order[k:] {
		if t.IsLeaf(int(v)) {
			val[v] = leafVal[v]
		} else {
			val[v] = applyOp(op[v], val[t.Left[v]], val[t.Right[v]])
		}
	}
	pram.Release(s, order)
	pram.Release(s, stack)
}

// contractChargeState keeps the rake-schedule replay's per-round counts
// reusable per (Sim, width).
type contractChargeState[I Ix] struct {
	roundCnts []int
}

type contractChargeKey[I Ix] struct{}

func contractChargeOf[I Ix](s *pram.Sim) *contractChargeState[I] {
	sc := s.Scratch()
	if v := sc.Aux(contractChargeKey[I]{}); v != nil {
		return v.(*contractChargeState[I])
	}
	st := &contractChargeState[I]{}
	sc.SetAux(contractChargeKey[I]{}, st)
	return st
}

// chargeEvalTree replays the exact simulated charge sequence of the
// phase-structured EvalTreeIx: it re-runs the rake schedule on a
// link-only skeleton (no functions, no values, no rake records), since
// the number of rounds and the rake counts per round are data-dependent.
// It must mirror EvalTreeIx charge for charge.
func chargeEvalTree[I Ix](s *pram.Sim, t BinTreeIx[I], leafRank []I) {
	n := t.Len()
	p := s.Procs()
	charge := func(m, cost int) {
		if m > 0 {
			s.Charge(int64(ceilDivInt(m, p)*cost), int64(m*cost))
		}
	}
	charge(n, 2)            // init
	charge(n, 1)            // leaf IndexPack flags
	chargeScan(s, n, false) // leaf IndexPack position scan
	charge(n, 1)            // leaf IndexPack scatter

	left := pram.GrabNoClear[I](s, n)
	right := pram.GrabNoClear[I](s, n)
	parent := pram.GrabNoClear[I](s, n)
	num := pram.GrabNoClear[I](s, n)
	copy(left, t.Left)
	copy(right, t.Right)
	copy(parent, t.Parent)
	nl := 0
	for v := 0; v < n; v++ {
		if t.IsLeaf(v) {
			nl++
		}
	}
	leaves := pram.GrabNoClear[I](s, nl)
	nextLv := pram.GrabNoClear[I](s, nl)
	sel := pram.GrabNoClear[I](s, nl)
	j := 0
	for v := 0; v < n; v++ {
		if t.IsLeaf(v) {
			leaves[j] = I(v)
			num[v] = leafRank[v] + 1
			j++
		}
	}

	st := contractChargeOf[I](s)
	cnts := st.roundCnts[:0]
	guard := 2
	for v := 1; v < n; v <<= 1 {
		guard += 2
	}
	for len(leaves) > 1 && guard > 0 {
		guard--
		for _, wantLeft := range [2]bool{true, false} {
			lv := len(leaves)
			charge(lv, 1)            // candidate flags
			charge(lv, 1)            // pack flags
			chargeScan(s, lv, false) // pack position scan
			charge(lv, 1)            // pack scatter
			selN := 0
			for _, x := range leaves {
				px := parent[x]
				if num[x]%2 == 1 && px >= 0 &&
					((wantLeft && left[px] == x) || (!wantLeft && right[px] == x)) {
					sel[selN] = x
					selN++
				}
			}
			charge(selN, 1) // pack gather (skipped when empty)
			if selN == 0 {
				continue
			}
			charge(selN, 4) // rake phase
			for i := 0; i < selN; i++ {
				x := sel[i]
				px := parent[x]
				var sib I
				if left[px] == x {
					sib = right[px]
				} else {
					sib = left[px]
				}
				g := parent[px]
				if g >= 0 {
					if left[g] == px {
						left[g] = sib
					} else {
						right[g] = sib
					}
				}
				parent[sib] = g
			}
			cnts = append(cnts, selN)
		}
		lv := len(leaves)
		charge(lv, 1)            // live flags (renumber)
		charge(lv, 1)            // pack flags
		chargeScan(s, lv, false) // pack position scan
		charge(lv, 1)            // pack scatter
		out := 0
		for _, x := range leaves {
			if num[x]%2 == 0 {
				num[x] /= 2
				nextLv[out] = x
				out++
			}
		}
		charge(out, 1) // pack gather (skipped when empty)
		leaves, nextLv = nextLv[:out], leaves[:cap(leaves)]
	}
	for r := len(cnts) - 1; r >= 0; r-- {
		charge(cnts[r], 3) // backward value replay
	}
	st.roundCnts = cnts[:0]
	pram.Release(s, left)
	pram.Release(s, right)
	pram.Release(s, parent)
	pram.Release(s, num)
	pram.Release(s, leaves)
	pram.Release(s, nextLv)
	pram.Release(s, sel)
}
