package ir

import "fmt"

// Dominator analysis over a function's CFG, self-contained so that both
// program validation (this package) and the static semantic layer
// (internal/sanalysis) share one implementation. The algorithm is the
// iterative Cooper–Harvey–Kennedy scheme: compute a reverse post-order,
// then refine immediate dominators to a fixed point by intersecting
// predecessor dominators along the RPO.

// ExitBlock returns the index of the virtual exit node used by the
// post-dominator computation: one past the last real block. Every block
// terminated by Ret or Halt has an implicit edge to it.
func ExitBlock(f *Func) int { return len(f.Blocks) }

// domGraph is the minimal digraph shape the dominator solver needs.
type domGraph struct {
	n     int
	entry int
	succs [][]int
	preds [][]int
}

// forwardGraph builds the plain CFG of f (no virtual nodes, entry block 0).
func forwardGraph(f *Func) *domGraph {
	n := len(f.Blocks)
	g := &domGraph{n: n, entry: 0, succs: make([][]int, n), preds: make([][]int, n)}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			g.succs[b.ID] = append(g.succs[b.ID], s)
			g.preds[s] = append(g.preds[s], b.ID)
		}
	}
	return g
}

// reverseGraph builds the reversed CFG of f augmented with the virtual exit
// (index ExitBlock(f)) as entry, for post-dominator computation.
func reverseGraph(f *Func) *domGraph {
	n := len(f.Blocks)
	g := &domGraph{n: n + 1, entry: n, succs: make([][]int, n+1), preds: make([][]int, n+1)}
	edge := func(u, v int) { // reversed: v -> u in the original CFG
		g.succs[v] = append(g.succs[v], u)
		g.preds[u] = append(g.preds[u], v)
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			edge(b.ID, s)
		}
		switch b.Term().Op {
		case OpRet, OpHalt:
			edge(b.ID, n)
		}
	}
	return g
}

// rpo returns a reverse post-order over nodes reachable from g.entry and the
// node -> RPO index map (-1 for unreachable nodes).
func (g *domGraph) rpo() (order []int, index []int) {
	index = make([]int, g.n)
	for i := range index {
		index[i] = -1
	}
	seen := make([]bool, g.n)
	var post []int
	type frame struct{ node, next int }
	stack := []frame{{g.entry, 0}}
	seen[g.entry] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(g.succs[fr.node]) {
			v := g.succs[fr.node][fr.next]
			fr.next++
			if !seen[v] {
				seen[v] = true
				stack = append(stack, frame{v, 0})
			}
			continue
		}
		post = append(post, fr.node)
		stack = stack[:len(stack)-1]
	}
	order = make([]int, len(post))
	for i := range post {
		order[i] = post[len(post)-1-i]
	}
	for i, n := range order {
		index[n] = i
	}
	return order, index
}

// solveDominators runs the Cooper–Harvey–Kennedy fixed point on g. The
// entry's idom is itself; nodes unreachable from the entry get -1.
func solveDominators(g *domGraph) []int {
	order, idx := g.rpo()
	idom := make([]int, g.n)
	for i := range idom {
		idom[i] = -1
	}
	idom[g.entry] = g.entry
	intersect := func(a, b int) int {
		for a != b {
			for idx[a] > idx[b] {
				a = idom[a]
			}
			for idx[b] > idx[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			if n == g.entry {
				continue
			}
			newIdom := -1
			for _, p := range g.preds[n] {
				if idx[p] < 0 || idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[n] != newIdom {
				idom[n] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominators computes the immediate dominator of every block of f with
// respect to the entry block (block 0). The entry's idom is itself; blocks
// unreachable from the entry get -1.
func Dominators(f *Func) []int {
	return solveDominators(forwardGraph(f))
}

// PostDominators computes the immediate post-dominator of every block of f
// with respect to the virtual exit. The result has len(f.Blocks)+1 entries;
// entry ExitBlock(f) is the virtual exit itself (its own ipdom). Blocks from
// which no path reaches a Ret/Halt terminator (infinite loops) get -1.
func PostDominators(f *Func) []int {
	return solveDominators(reverseGraph(f))
}

// ControlDeps records static block-level control dependence for a function:
// Parents[b] lists the branch blocks that block b is control dependent on.
// The lists are deduplicated and in discovery order. Control dependence
// drives the CD edges of the Whole Execution Trace (the labeled edges from
// predicates to the statements whose execution they decide).
type ControlDeps struct {
	Parents [][]int
}

// ControlDependence computes control dependence for f via the standard
// post-dominance criterion (Ferrante–Ottenstein–Warren): for each CFG edge
// u->v where v does not post-dominate u, every node on the post-dominator
// tree path from v up to (but excluding) ipdom(u) is control dependent on u.
func ControlDependence(f *Func) (*ControlDeps, error) {
	ipdom := PostDominators(f)
	n := len(f.Blocks)
	cd := &ControlDeps{Parents: make([][]int, n)}
	have := make([]map[int]bool, n)
	add := func(node, parent int) {
		if have[node] == nil {
			have[node] = map[int]bool{}
		}
		if !have[node][parent] {
			have[node][parent] = true
			cd.Parents[node] = append(cd.Parents[node], parent)
		}
	}
	for _, b := range f.Blocks {
		if len(b.Succs) < 2 {
			continue // only branches create control dependence
		}
		u := b.ID
		if ipdom[u] < 0 {
			return nil, fmt.Errorf("ir: %s block %d cannot reach exit", f.Name, u)
		}
		stop := ipdom[u]
		for _, v := range b.Succs {
			for w := v; w != stop; w = ipdom[w] {
				if w < 0 || w == ExitBlock(f) {
					return nil, fmt.Errorf("ir: %s: post-dominator walk from edge %d->%d escaped", f.Name, u, v)
				}
				add(w, u)
				if ipdom[w] == w {
					break // reached the root of the post-dominator tree
				}
			}
		}
	}
	return cd, nil
}
