package ir

// condense computes the strongly connected components of the resolved
// call graph with an iterative Tarjan, returning them in bottom-up
// order: when an SCC is emitted, every SCC it has an edge into has
// already been emitted. Iterative, because synthetic corpora produce
// call chains deep enough to overflow a recursive walk.
func condense(funcs []*Function) [][]int {
	n := len(funcs)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		sccs    [][]int
		stack   []int // Tarjan's component stack
		next    int   // next DFS index
		callPos []int // per-frame position in the callee list
		call    []int // DFS frame stack (function IDs)
	)
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], root)
		callPos = append(callPos[:0], 0)
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			v := call[len(call)-1]
			pos := callPos[len(call)-1]
			if pos < len(funcs[v].Callees) {
				callPos[len(call)-1]++
				w := funcs[v].Callees[pos]
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, w)
					callPos = append(callPos, 0)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is exhausted: pop the frame, fold low into the parent,
			// and emit v's component if v is a root.
			call = call[:len(call)-1]
			callPos = callPos[:len(callPos)-1]
			if len(call) > 0 {
				if p := call[len(call)-1]; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}
	return sccs
}
