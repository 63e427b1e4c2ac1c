package radix

// Pair is one expanded tuple: a packed (rowid, colid) key and the multiplied
// value. Storing key and payload adjacently matches the paper's COO tuple
// layout and halves the cache lines each scatter touches compared to
// parallel arrays.
type Pair struct {
	Key uint64
	Val float64
}

func insertionSortPairs(ps []Pair) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for j >= 0 && ps[j].Key > p.Key {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

// GrowPairs returns (*buf)[:n], reallocating only when capacity is short;
// contents are unspecified. It is the Pair counterpart of internal/matrix's
// grow-only helpers, shared by the pooled workspaces of internal/core and
// internal/baseline.
func GrowPairs(buf *[]Pair, n int64) []Pair {
	if int64(cap(*buf)) < n {
		*buf = make([]Pair, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
