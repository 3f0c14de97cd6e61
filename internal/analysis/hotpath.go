package analysis

// Hot-cone computation. The performance passes (hotalloc, hotblock) only
// make sense on the code the paper's Figure 2 loop actually executes:
// authenticate, unseal, delegate. That path is named in source with a
// standalone
//
//	//myproxy:hotpath
//
// line in a function declaration's doc comment. The *hot cone* is every
// function reachable from a marked root through the load's call graph
// (callgraph.go): direct calls, method and function values taken, and the
// function literals a cone member creates. Interface dispatch is not
// devirtualized (DESIGN.md §13), so a call through an interface leaves the
// cone — the Fig. 2 roots are therefore annotated on both sides of each
// interface seam (the core handlers AND keypool.Get, proxy.VerifyCache,
// credstore.UnsealDelegated, the gsi framing layer) rather than trusting
// reachability to cross it.

// collectHotCone fills ctx.HotCone with the qualified keys reachable from
// //myproxy:hotpath-annotated declarations. Requires ctx.CallGraph (i.e.
// runs after buildSummaries).
func collectHotCone(ctx *Context) {
	ctx.HotCone = make(map[string]bool)
	var visit func(key string)
	visit = func(key string) {
		if ctx.HotCone[key] {
			return
		}
		ctx.HotCone[key] = true
		if n := ctx.CallGraph.Nodes[key]; n != nil {
			for c := range n.Callees {
				visit(c)
			}
		}
	}
	for key := range ctx.markers.hotRoots {
		visit(key)
	}
}

// deriveCostly recomputes one call-graph node's entry in ctx.HotCostly, the
// costly-work closure hotblock consults, reporting whether it changed: a
// seed keeps its own description, and any other node is costly when a
// callee is, taking the lexicographically smallest description among its
// callees — deterministic regardless of map iteration order. The summary
// sweep (interproc.go) calls it bottom-up over the call graph.
func deriveCostly(ctx *Context, key string) bool {
	if desc, seeded := hotCostlySeeds[key]; seeded {
		ctx.HotCostly[key] = desc
		return false
	}
	best := ctx.HotCostly[key]
	for c := range ctx.CallGraph.Nodes[key].Callees {
		if d := ctx.HotCostly[c]; d != "" && c != key && (best == "" || d < best) {
			best = d
		}
	}
	if best == ctx.HotCostly[key] {
		return false
	}
	ctx.HotCostly[key] = best
	return true
}

// shortFuncKey compacts a qualified key for diagnostics:
// "(repro/internal/core.Server).handleGet" becomes "(core.Server).handleGet",
// "repro/internal/keypool.Get" becomes "keypool.Get". Literal suffixes
// ("$1") are preserved.
func shortFuncKey(key string) string {
	i := lastSlash(key)
	if i < 0 {
		return key
	}
	prefix := ""
	if key[0] == '(' {
		prefix = "("
		key = key[1:]
		i--
	}
	return prefix + key[i+1:]
}
