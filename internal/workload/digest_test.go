package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// streamDigestLen is how many accesses of each workload's stream
// TestGeneratorStreamDigest hashes.
const streamDigestLen = 500_000

// streamDigests pins the first streamDigestLen accesses of every Table II
// workload, every field included, as an FNV-64a digest. They were captured
// from the generator before its queue and parameter handling were made
// allocation-free, and every figure in the repository is a function of
// these streams: a change here moves them all.
var streamDigests = map[string]string{
	"Data Serving":    "187a6a54d1fbfb28",
	"MapReduce-C":     "572bcb7458b04952",
	"MapReduce-W":     "f4e9b9251081e20a",
	"Media Streaming": "38757084bc7ba2c2",
	"OLTP":            "259ce10d24d95c6d",
	"SAT Solver":      "b09e316242337468",
	"Web Apache":      "afc87bacf1d51eaf",
	"Web Search":      "50b09c2c9fd71a12",
	"Web Zeus":        "b76003b4bd7e63bf",
}

// streamDigest hashes the first n accesses of p's stream.
func streamDigest(p Params, n int) string {
	h := fnv.New64a()
	g := New(p)
	var rec [20]byte
	for i := 0; i < n; i++ {
		a, _ := g.Next()
		binary.LittleEndian.PutUint64(rec[0:], uint64(a.PC))
		binary.LittleEndian.PutUint64(rec[8:], uint64(a.Addr))
		binary.LittleEndian.PutUint16(rec[16:], a.Gap)
		rec[18], rec[19] = 0, 0
		if a.Write {
			rec[18] = 1
		}
		if a.Dependent {
			rec[19] = 1
		}
		h.Write(rec[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGeneratorStreamDigest requires every workload's stream to match its
// checked-in digest: the generator's RNG call sequence and the fields it
// emits are part of the reproduction's contract.
func TestGeneratorStreamDigest(t *testing.T) {
	for _, name := range Names {
		got := streamDigest(ByName(name), streamDigestLen)
		want, ok := streamDigests[name]
		if !ok {
			t.Errorf("%q: no checked-in digest (got %s)", name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: stream digest %s, want %s", name, got, want)
		}
	}
}
