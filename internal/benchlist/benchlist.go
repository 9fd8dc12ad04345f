// Package benchlist is the shared registry of runnable benchmarks: the
// paper's running examples, the six RECIPE structures, the five PMDK
// examples, and the networked PM server. The command-line front ends and
// the jaarubench harness all select workloads from this one list, so a
// benchmark name means the same program everywhere.
package benchlist

import (
	"fmt"
	"sort"

	"jaaru/internal/core"
	"jaaru/internal/netsim"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
)

// Benchmark is one selectable workload.
type Benchmark struct {
	Name string
	Doc  string
	// Build constructs the program for workload size n; buggy selects the
	// seeded-bug variant.
	Build func(n int, buggy bool) core.Program
}

// All returns the registry in a stable order (by name).
func All() []Benchmark {
	bms := []Benchmark{
		{"figure2", "the paper's Figure 2/3 running example", func(int, bool) core.Program {
			return core.Program{
				Name: "figure2",
				Run: func(c *core.Context) {
					x, y := c.Root(), c.Root().Add(8)
					c.Store64(y, 1)
					c.Store64(x, 2)
					c.Clflush(x, 8)
					c.Store64(y, 3)
					c.Store64(x, 4)
					c.Store64(y, 5)
					c.Store64(x, 6)
				},
				Recover: func(c *core.Context) {
					x := c.Load64(c.Root())
					y := c.Load64(c.Root().Add(8))
					fmt.Printf("  post-failure state: x=%d y=%d\n", x, y)
				},
			}
		}},
		{"figure4", "the paper's Figure 4 commit-store example", func(int, bool) core.Program {
			return core.Program{
				Name: "figure4",
				Run: func(c *core.Context) {
					tmp := c.AllocLine(8)
					c.Store64(tmp, 0xD0D0)
					c.Clflush(tmp, 8)
					c.StorePtr(c.Root(), tmp)
					c.Clflush(c.Root(), 8)
				},
				Recover: func(c *core.Context) {
					child := c.LoadPtr(c.Root())
					if child != 0 {
						fmt.Printf("  readChild: data=%#x\n", c.Load64(child))
					} else {
						fmt.Println("  readChild: null (not committed)")
					}
				},
			}
		}},
		{"commitstore", "examples/commitstore: Figure 4 with (-buggy: without) the data flush", func(_ int, buggy bool) core.Program {
			return core.Program{
				Name: "commitstore",
				Run: func(c *core.Context) {
					tmp := c.AllocLine(8)
					c.Store64(tmp, 0xDA7A)
					if !buggy {
						c.Clflush(tmp, 8)
					}
					c.StorePtr(c.Root(), tmp)
					c.Clflush(c.Root(), 8)
				},
				Recover: func(c *core.Context) {
					if child := c.LoadPtr(c.Root()); child != 0 {
						c.Assert(c.Load64(child) == 0xDA7A, "committed child lost its data")
					}
				},
			}
		}},
		{"cceh", "RECIPE CCEH (extendible hashing)", func(n int, buggy bool) core.Program {
			return recipe.CCEHWorkload(n, recipe.CCEHBugs{NoSegmentFlush: buggy})
		}},
		// The update-heavy variants rewrite the same slots in place for 2n
		// rounds: the recurring crash states exercise POR's fingerprint sweep
		// and the choice-point snapshot stack. No seeded-bug variant exists,
		// so -buggy is ignored.
		{"cceh-update", "RECIPE CCEH update-heavy (in-place slot rewrites)", func(n int, _ bool) core.Program {
			return recipe.CCEHUpdateWorkload(3, 2*n)
		}},
		{"clht-update", "RECIPE P-CLHT update-heavy (in-place slot rewrites)", func(n int, _ bool) core.Program {
			return recipe.CLHTUpdateWorkload(3, 2*n)
		}},
		{"fastfair", "RECIPE FAST_FAIR (B-link tree)", func(n int, buggy bool) core.Program {
			return recipe.FastFairWorkload(n, recipe.FFBugs{NoHeaderFlush: buggy})
		}},
		{"part", "RECIPE P-ART (radix tree)", func(n int, buggy bool) core.Program {
			return recipe.ARTWorkload(n, recipe.ARTBugs{NoRootNodeFlush: buggy})
		}},
		{"bwtree", "RECIPE P-BwTree (delta chains + GC)", func(n int, buggy bool) core.Program {
			return recipe.BwTreeWorkload(n, recipe.BwTreeBugs{GCReversedLink: buggy})
		}},
		{"clht", "RECIPE P-CLHT (cache-line hash table)", func(n int, buggy bool) core.Program {
			return recipe.CLHTWorkload(n, recipe.CLHTBugs{NoLockReset: buggy})
		}},
		{"masstree", "RECIPE P-Masstree (COW B+tree)", func(n int, buggy bool) core.Program {
			return recipe.MasstreeWorkload(n, recipe.MasstreeBugs{FlushObjectNotPointer: buggy})
		}},
		{"btree", "PMDK btree_map (transactional B-tree)", func(n int, buggy bool) core.Program {
			return pmdk.BTreeWorkload(n, pmdk.CreateBugs{}, pmdk.BTreeBugs{NoNodeFlush: buggy})
		}},
		{"ctree", "PMDK ctree_map (crit-bit tree)", func(n int, buggy bool) core.Program {
			return pmdk.CTreeWorkload(n, pmdk.CTreeBugs{Tx: pmdk.TxBugs{CountBeforeEntry: buggy}})
		}},
		{"rbtree", "PMDK rbtree_map (red-black tree)", func(n int, buggy bool) core.Program {
			return pmdk.RBTreeWorkload(n, pmdk.RBTreeBugs{Tx: pmdk.TxBugs{SkipAdd: buggy}})
		}},
		{"hashmap_atomic", "PMDK hashmap_atomic", func(n int, buggy bool) core.Program {
			return pmdk.HashmapAtomicWorkload(n,
				pmdk.HashmapAtomicBugs{Heap: pmdk.HeapBugs{NoHeaderFlush: buggy}})
		}},
		{"hashmap_tx", "PMDK hashmap_tx (transactional)", func(n int, buggy bool) core.Program {
			return pmdk.HashmapTXWorkload(n,
				pmdk.HashmapTXBugs{Tx: pmdk.TxBugs{NoEntryFlush: buggy}})
		}},
		{"pmserver", "exactly-once PM key-value server over a replayed client trace", func(n int, buggy bool) core.Program {
			trace := netsim.Trace{}
			for i := 0; i < n; i++ {
				trace = append(trace,
					netsim.Request{Op: netsim.OpSet, Key: uint64(i%3 + 1), Val: uint64(i * 10)},
					netsim.Request{Op: netsim.OpAdd, Key: uint64(i%3 + 1), Val: 1})
			}
			return netsim.Program("pmserver", trace, netsim.ServerBugs{SeqOutsideTx: buggy})
		}},
	}
	sort.Slice(bms, func(i, j int) bool { return bms[i].Name < bms[j].Name })
	return bms
}

// Find returns the named benchmark, or nil.
func Find(name string) *Benchmark {
	bms := All()
	for i := range bms {
		if bms[i].Name == name {
			return &bms[i]
		}
	}
	return nil
}
