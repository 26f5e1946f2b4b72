package main

import (
	"sync"
	"time"
)

// hostProbeReferenceMS is the probe's median time on the reference
// machine (README.md, "The machine") while its host was quiet. Scaled
// end-to-end metrics read as that machine would have measured them.
const hostProbeReferenceMS = 16.0

// hostProbeSamples is how many probe runs a run makes before set-up and
// again after the timed phase.
const hostProbeSamples = 15

// probeHost measures how fast the host runs right now, with a fixed
// computation that shares no code with lotustc: on every CPU at once, a
// dependent walk over a 32 MiB table, a merge of two sorted arrays and
// an integer hash loop. It returns the wall time of each of samples
// runs. The host is shared and its speed drifts by up to 1.8x over
// minutes; the ratio of this probe's time to its reference time takes
// most of that drift out of runs made minutes apart.
func probeHost(nproc, samples int) []time.Duration {
	const tableLen = 1 << 23
	table := make([]uint32, tableLen)
	for i := range table {
		// A full-period linear congruential step: the walk visits the
		// table in an order no prefetcher follows.
		table[i] = uint32((uint64(i)*1664525 + 1013904223) % tableLen)
	}
	sorted := func(seed uint32) []uint32 {
		s := make([]uint32, 1<<18)
		x := seed
		for i := range s {
			x = x*1103515245 + 12345
			if i > 0 {
				s[i] = s[i-1] + 1 + x>>29
			}
		}
		return s
	}
	a, b := sorted(1), sorted(2)
	out := make([]time.Duration, samples)
	sums := make([]uint64, nproc) // keeps every goroutine's result live
	for s := range out {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := range nproc {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := uint32(w) * 7919
				for range 1 << 16 {
					x = table[x]
				}
				n := uint64(x)
				for i, j := 0, 0; i < len(a) && j < len(b); {
					switch {
					case a[i] < b[j]:
						i++
					case a[i] > b[j]:
						j++
					default:
						n++
						i++
						j++
					}
				}
				for range 1 << 21 {
					n = n*6364136223846793005 + 1442695040888963407
				}
				sums[w] += n
			}()
		}
		wg.Wait()
		out[s] = time.Since(t0)
	}
	return out
}
