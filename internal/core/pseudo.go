package core

import (
	"fmt"

	"pathcover/internal/par"
	"pathcover/internal/pram"
)

// BinTree re-aliases the width-generic binary forest of internal/par so
// PseudoIx can embed it under the field name the int-width code has
// always used.
type BinTree[I par.Ix] = par.BinTreeIx[I]

// PseudoIx is the pseudo path forest of Step 5, generic over the index
// width (see par.Ix): binary trees over the n real vertices plus the
// dummy vertices (ids n..n+EffDummies-1), whose inorder traversals spell
// out candidate paths. Until Step 6 it may contain illegal insert
// vertices (paper Fig. 9).
type PseudoIx[I par.Ix] struct {
	BinTree[I]
	NumVertices int
	EffDummies  int
}

// Pseudo is the int-width pseudo forest, the historical form.
type Pseudo = PseudoIx[int]

// Release returns the pseudo forest's link slices to the Sim's arena.
func (ps *PseudoIx[I]) Release(s *pram.Sim) {
	par.ReleaseBinTreeIx(s, ps.BinTree)
	ps.BinTree = BinTree[I]{}
}

// BuildPseudo matches the square and round bracket families
// independently (Lemma 5.1(3)) and decodes the matched pairs into the
// edges of the pseudo path forest:
//
//	a[ ... b]   (right kind)  ->  a becomes the right child of bridge b
//	a[ ... b]   (left kind)   ->  a becomes the left child of bridge b
//	a( ... b)   (left slot)   ->  b becomes the left child of a
//	a( ... b)   (right slot)  ->  b becomes the right child of a
//
// Unmatched "[" mark path tree roots; unmatched "(" are free slots. An
// unmatched ")" would leave an insert or dummy without a parent — the
// capacity invariant S(x) >= L(x)+p(x) of §4 rules it out, and the
// builder reports it as an error if it ever happens.
func BuildPseudo(s *pram.Sim, n int, red *Reduction, seq *BracketSeq) (*Pseudo, error) {
	return buildPseudoIx(s, n, red, seq)
}

func buildPseudoIx[I par.Ix](s *pram.Sim, n int, red *ReductionIx[I], seq *BracketSeqIx[I]) (*PseudoIx[I], error) {
	total := seq.Len()
	N := n + seq.EffDummies
	ps := &PseudoIx[I]{BinTree: par.GrabBinTreeIx[I](s, N), NumVertices: n, EffDummies: seq.EffDummies}

	for _, square := range []bool{true, false} {
		square := square
		inFam := pram.GrabNoClear[bool](s, total)
		s.ParallelForRange(total, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				inFam[i] = seq.Kind[i].IsSquare() == square
			}
		})
		pos := par.IndexPackIx[I](s, inFam)
		m := len(pos)
		open := pram.GrabNoClear[bool](s, m)
		s.ParallelForRange(m, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				open[k] = seq.Kind[pos[k]].IsOpen()
			}
		})
		match := par.MatchBracketsIx[I](s, open)

		bad := pram.Grab[I](s, m)
		s.ForCostRange(m, 2, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				i := pos[k]
				if match[k] < 0 {
					if seq.Kind[i] == KRdCloseP {
						bad[k] = 1 // an insert/dummy without a parent
					}
					continue
				}
				j := pos[match[k]]
				if square {
					if seq.Kind[i] != KSqOpenP {
						continue // handle each pair once, from the open side
					}
					a, b := seq.Vert[i], seq.Vert[j]
					ps.Parent[a] = b
					if seq.Kind[j] == KSqCloseL {
						ps.Left[b] = a
					} else {
						ps.Right[b] = a
					}
				} else {
					if seq.Kind[i] != KRdCloseP {
						continue
					}
					child, parent := seq.Vert[i], seq.Vert[j]
					ps.Parent[child] = parent
					if seq.Kind[j] == KRdOpenL {
						ps.Left[parent] = child
					} else {
						ps.Right[parent] = child
					}
				}
			}
		})
		nbad := par.Reduce(s, bad, 0, func(a, b I) I { return a + b })
		pram.Release(s, inFam)
		pram.Release(s, pos)
		pram.Release(s, open)
		pram.Release(s, match)
		pram.Release(s, bad)
		if nbad > 0 {
			ps.Release(s)
			return nil, fmt.Errorf("core: %d unmatched parent brackets (capacity invariant violated)", int(nbad))
		}
	}
	return ps, nil
}

// FixIllegal is Step 6. An insert vertex is illegal when one of its
// *effective* inorder neighbours — the nearest non-dummy in each
// direction — is a bridge or insert vertex of the same active 1-node:
// such pairs both live in G(w) of that node and carry no adjacency
// guarantee. (The paper checks the immediate neighbours only; because a
// dummy spliced out in Step 7 joins its two neighbours, and because
// splicing a node with at most one child preserves inorder, the
// effective neighbours are exactly the adjacencies of the final paths,
// so checking them closes the cross-level gap the literal check leaves
// open — see DESIGN.md.)
//
// Each illegal insert is exchanged, subtree and all, with a legal dummy
// of the same 1-node. A swap can create a fresh effective adjacency
// elsewhere (the spots vacated by two swapped inserts can become
// effectively adjacent), so the check-and-exchange is iterated until no
// illegal insert remains; each round is one O(log n) phase and the rounds
// observed in practice are 1-3 (asserted bounded here).
//
// It returns the total number of exchanges performed.
func FixIllegal(s *pram.Sim, ps *Pseudo, red *Reduction, seed uint64) (int, error) {
	return fixIllegalIx(s, ps, red, seed)
}

func fixIllegalIx[I par.Ix](s *pram.Sim, ps *PseudoIx[I], red *ReductionIx[I], seed uint64) (int, error) {
	n := red.NumVertices
	N := ps.Len()
	nd := ps.EffDummies
	if nd == 0 {
		return 0, nil
	}

	segOp := func(a, b segIx[I]) segIx[I] {
		if b.reset {
			return b
		}
		return segIx[I]{a.sum + b.sum, a.reset}
	}

	// Inserts in (owner, idx) order = leaf-rank order filtered to inserts.
	isIns := pram.GrabNoClear[bool](s, n)
	s.ParallelForRange(n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			isIns[r] = red.Role[red.VertAt[r]] == RoleInsert
		}
	})
	insRanks := par.IndexPackIx[I](s, isIns)
	pram.Release(s, isIns)
	ni := len(insRanks)
	defer pram.Release(s, insRanks)

	// isLeft[x] records which side of its parent x hangs on, set each
	// round from the parent's side; an exchange reads the bits of its own
	// two nodes instead of their parents' child slots, which a concurrent
	// exchange of a sibling may be rewriting.
	isLeft := pram.Grab[bool](s, N)
	defer pram.Release(s, isLeft)

	sentinel := par.MinIx[I]()
	totalSwaps := 0
	const maxRounds = 48
	for round := 0; ; round++ {
		if round >= maxRounds {
			return totalSwaps, fmt.Errorf("core: illegal-insert exchange did not converge in %d rounds", maxRounds)
		}
		tour := par.TourBinaryIx(s, ps.BinTree, seed+uint64(round))

		// Effective neighbours: nearest non-dummy left/right in inorder.
		lastReal := pram.GrabNoClear[I](s, N)
		s.ParallelForRange(N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if int(tour.InSeq[i]) < n {
					lastReal[i] = I(i)
				} else {
					lastReal[i] = -1
				}
			}
		})
		prevReal := par.MaxScanIx(s, lastReal)
		// next non-dummy via a max-scan over the reversed sequence.
		rev := pram.GrabNoClear[I](s, N)
		s.ParallelForRange(N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				j := N - 1 - i
				if int(tour.InSeq[j]) < n {
					rev[i] = -I(j + 1) // encode so that max = smallest j
				} else {
					rev[i] = sentinel
				}
			}
		})
		nextRealEnc := par.MaxScanIx(s, rev)

		effNeighbor := func(x int, left bool) int {
			in := int(tour.In[x])
			if left {
				if in == 0 {
					return -1
				}
				p := prevReal[in-1]
				if p < 0 {
					return -1
				}
				y := int(tour.InSeq[p])
				if tour.Root[y] != tour.Root[x] {
					return -1
				}
				return y
			}
			if in == N-1 {
				return -1
			}
			enc := nextRealEnc[N-1-(in+1)]
			if enc == sentinel {
				return -1
			}
			y := int(tour.InSeq[-enc-1])
			if tour.Root[y] != tour.Root[x] {
				return -1
			}
			return y
		}
		sameLevelW := func(x, y int) bool {
			if y < 0 {
				return false
			}
			ry := red.RoleOf(y)
			return (ry == RoleBridge || ry == RoleInsert) &&
				red.OwnerOf(y) == red.OwnerOf(x)
		}
		illegal := pram.Grab[bool](s, N)
		s.ForCostRange(N, 4, func(lo, hi int) {
			for x := lo; x < hi; x++ {
				if l := ps.Left[x]; l >= 0 {
					isLeft[l] = true
				}
				if r := ps.Right[x]; r >= 0 {
					isLeft[r] = false
				}
				role := red.RoleOf(x)
				if role != RoleInsert && role != RoleDummy {
					continue
				}
				illegal[x] = sameLevelW(x, effNeighbor(x, true)) ||
					sameLevelW(x, effNeighbor(x, false))
			}
		})
		tour.Release(s)
		pram.Release(s, lastReal)
		pram.Release(s, prevReal)
		pram.Release(s, rev)
		pram.Release(s, nextRealEnc)

		// Rank illegal inserts per owner.
		insItems := pram.GrabNoClear[segIx[I]](s, ni)
		s.ForCostRange(ni, 2, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				x := red.VertAt[insRanks[k]]
				v := I(0)
				if illegal[x] {
					v = 1
				}
				reset := k == 0 || red.Owner[red.VertAt[insRanks[k-1]]] != red.Owner[x]
				insItems[k] = segIx[I]{v, reset}
			}
		})
		insScan := par.InclusiveScan(s, insItems, segIx[I]{}, segOp)
		nIllegal := 0
		{
			flags := pram.GrabNoClear[I](s, ni)
			s.ParallelForRange(ni, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					flags[k] = insItems[k].sum
				}
			})
			nIllegal = int(par.Reduce(s, flags, 0, func(a, b I) I { return a + b }))
			pram.Release(s, flags)
		}
		pram.Release(s, insItems)
		if nIllegal == 0 {
			pram.Release(s, illegal)
			pram.Release(s, insScan)
			return totalSwaps, nil
		}

		// Rank legal dummies per owner (dummies are grouped by owner in
		// id order) and count them per owner.
		dumItems := pram.GrabNoClear[segIx[I]](s, nd)
		s.ForCostRange(nd, 2, func(lo, hi int) {
			for d := lo; d < hi; d++ {
				v := I(0)
				if !illegal[n+d] {
					v = 1
				}
				reset := d == 0 || red.DummyOwner[d-1] != red.DummyOwner[d]
				dumItems[d] = segIx[I]{v, reset}
			}
		})
		dumScan := par.InclusiveScan(s, dumItems, segIx[I]{}, segOp)
		legalAt := pram.GrabNoClear[I](s, nd)
		legalCount := pram.Grab[I](s, nd) // per owner, stored at DummyBase
		s.ParallelForRange(nd, func(lo, hi int) {
			for d := lo; d < hi; d++ {
				legalAt[d] = -1
			}
		})
		s.ParallelForRange(nd, func(lo, hi int) {
			for d := lo; d < hi; d++ {
				u := red.DummyOwner[d]
				if !illegal[n+d] {
					legalAt[red.DummyBase[u]+dumScan[d].sum-1] = I(n + d)
				}
				if d == nd-1 || red.DummyOwner[d+1] != u {
					legalCount[red.DummyBase[u]] = dumScan[d].sum
				}
			}
		})

		// Exchange: k-th illegal insert of node u takes the
		// (k+round)-mod-legalCount legal dummy of u (the rotation breaks
		// potential ping-pong cycles across rounds).
		missing := pram.Grab[I](s, ni)
		s.ForCostRange(ni, 4, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				x := red.VertAt[insRanks[k]]
				if !illegal[x] {
					continue
				}
				u := red.Owner[x]
				base := red.DummyBase[u]
				lc := int(legalCount[base])
				rank := int(insScan[k].sum) - 1
				if lc == 0 || rank >= lc {
					missing[k] = 1
					continue
				}
				d := legalAt[int(base)+(rank+round)%lc]
				if d < 0 {
					missing[k] = 1
					continue
				}
				swapPositions(ps, isLeft, x, d)
			}
		})
		nm := par.Reduce(s, missing, 0, func(a, b I) I { return a + b })
		pram.Release(s, illegal)
		pram.Release(s, insScan)
		pram.Release(s, dumItems)
		pram.Release(s, dumScan)
		pram.Release(s, legalAt)
		pram.Release(s, legalCount)
		pram.Release(s, missing)
		if nm > 0 {
			return totalSwaps, fmt.Errorf("core: %d illegal inserts without a legal dummy partner", int(nm))
		}
		totalSwaps += nIllegal
	}
}

// segIx is the segmented-sum monoid of FixIllegal's per-owner ranking
// (a value plus a segment-restart flag).
type segIx[I par.Ix] struct {
	sum   I
	reset bool
}

// swapPositions exchanges the tree positions of x and y, carrying their
// subtrees along (only the parent links, the side bits and the two
// parents' child slots change). It reads the side of x and y from
// isLeft, never a parent's child slot, so exchanges of siblings can run
// in one phase.
func swapPositions[I par.Ix](ps *PseudoIx[I], isLeft []bool, x, y I) {
	px, py := ps.Parent[x], ps.Parent[y]
	xLeft, yLeft := isLeft[x], isLeft[y]
	if px >= 0 {
		if xLeft {
			ps.Left[px] = y
		} else {
			ps.Right[px] = y
		}
	}
	if py >= 0 {
		if yLeft {
			ps.Left[py] = x
		} else {
			ps.Right[py] = x
		}
	}
	ps.Parent[x], ps.Parent[y] = py, px
	isLeft[x], isLeft[y] = yLeft, xLeft
}

// Bypass is Step 7: dummy vertices are spliced out. A dummy has at most
// one child (its only slot is the right one), so the dummies form
// downward chains; chain collapse (list ranking on the dummy links)
// finds each chain's first real descendant in O(log n) time.
func Bypass(s *pram.Sim, ps *Pseudo, red *Reduction, seed uint64) par.BinTree {
	return bypassIx(s, ps, red, seed)
}

func bypassIx[I par.Ix](s *pram.Sim, ps *PseudoIx[I], red *ReductionIx[I], seed uint64) par.BinTreeIx[I] {
	n := ps.NumVertices
	N := ps.Len()
	next := pram.GrabNoClear[I](s, N)
	s.ParallelForRange(N, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if x >= n { // dummy: follow its single (right) child
				next[x] = ps.Right[x]
			} else {
				next[x] = -1
			}
		}
	})
	dist, last := par.RankOptIx(s, next, seed)
	pram.Release(s, dist)
	pram.Release(s, next)

	final := par.GrabBinTreeIx[I](s, n)
	s.ForCostRange(n, 4, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			for _, side := range [2]bool{true, false} {
				var c I
				if side {
					c = ps.Left[x]
				} else {
					c = ps.Right[x]
				}
				if c < 0 {
					continue
				}
				t := c
				if int(c) >= n {
					t = last[c]
					if int(t) >= n { // childless dummy chain: slot empties
						continue
					}
				}
				if side {
					final.Left[x] = t
				} else {
					final.Right[x] = t
				}
				final.Parent[t] = I(x)
			}
		}
	})
	pram.Release(s, last)
	return final
}

// ExtractPaths is Step 8: the paths are the inorder traversals of the
// final path trees, read off from one Euler tour of the forest. The
// returned paths all slice into the returned backing buffer; both are
// drawn from the Sim's arena (the Cover that wraps them owns their
// release).
func ExtractPaths(s *pram.Sim, final par.BinTree, seed uint64) (paths [][]int, backing []int) {
	return extractPathsIx(s, final, seed)
}

func extractPathsIx[I par.Ix](s *pram.Sim, final par.BinTreeIx[I], seed uint64) (paths [][]I, backing []I) {
	n := final.Len()
	if n == 0 {
		return nil, nil
	}
	tour := par.TourBinaryIx(s, final, seed)
	size, leaves := tour.SubtreeCounts(s, final)
	pram.Release(s, leaves)
	// Global inorder sequence; trees occupy consecutive blocks in root
	// order.
	seq := pram.GrabNoClear[I](s, n)
	s.ParallelForRange(n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			seq[tour.In[x]] = I(x)
		}
	})
	roots := tour.Roots
	sizes := pram.GrabNoClear[I](s, len(roots))
	s.ParallelFor(len(roots), func(k int) { sizes[k] = size[roots[k]] })
	offs, _ := par.ScanIx(s, sizes)
	paths = pram.GrabNoClear[[]I](s, len(roots))
	s.ParallelFor(len(roots), func(k int) {
		paths[k] = seq[offs[k] : offs[k]+sizes[k]]
	})
	pram.Release(s, size)
	pram.Release(s, sizes)
	pram.Release(s, offs)
	tour.Release(s)
	return paths, seq
}
