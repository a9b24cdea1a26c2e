// Quickstart: build a simulated manual heap, pick a reclamation scheme,
// integrate it with Harris's lock-free linked-list, and watch nodes move
// through the paper's life-cycle (allocate -> share -> retire -> reclaim).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/ds"
	"repro/internal/ds/harris"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

func main() {
	// A heap of 4096 node slots, two payload words per node (key + next),
	// and the standard scheme-metadata words. Reuse mode recycles
	// reclaimed slots into program space.
	arena := mem.NewArena(mem.Config{
		Slots:        4096,
		PayloadWords: 2,
		MetaWords:    smr.MetaWords,
		Threads:      2,
		Mode:         mem.Reuse,
	})

	// Epoch-based reclamation: the easiest scheme to integrate, and
	// strongly applicable — but not robust (see the audited-R column of
	// `go run ./cmd/eramatrix`).
	scheme, err := all.New("ebr", arena, 2, 0)
	if err != nil {
		log.Fatal(err)
	}

	// The data structure is written once against the scheme barriers; any
	// scheme plugs in without touching the algorithm.
	list, err := harris.New(scheme, ds.Options{})
	if err != nil {
		log.Fatal(err)
	}

	for key := int64(1); key <= 10; key++ {
		if _, err := list.Insert(0, key); err != nil {
			log.Fatal(err)
		}
	}
	for key := int64(2); key <= 10; key += 2 {
		if _, err := list.Delete(0, key); err != nil {
			log.Fatal(err)
		}
	}
	present, err := list.Contains(0, 3)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("keys after deleting the evens:", list.Keys())
	fmt.Println("contains(3):", present)

	// Drive reclamation to quiescence and inspect the heap accounting.
	scheme.Flush(0)
	scheme.Flush(0)
	st := arena.Stats().Snapshot()
	fmt.Printf("heap: %d allocs, %d retires, %d reclaims, %d still retired, %d active\n",
		st.Allocs, st.Retires, st.Reclaims, st.Retired, st.Active)
	fmt.Printf("safety: %d unsafe accesses, %d faults\n",
		st.UnsafeLoads+st.UnsafeStores, st.Faults)
}
