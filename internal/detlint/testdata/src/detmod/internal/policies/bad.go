// Package policies is a fixture: internal/policies is in the
// deterministic set, so nowallclock and nomaprange apply here.
package policies

import (
	"sort"
	"time"
)

func stamp() int64 {
	return time.Now().Unix() // want nowallclock
}

func nap() {
	time.Sleep(time.Millisecond) // want nowallclock
}

// dur is fine: time constants and arithmetic are deterministic values.
func dur() time.Duration {
	return 3 * time.Second
}

// sortedKeys is the sanctioned idiom: collect the keys, sort, then use.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortedPositiveKeys guards the append on the value; still safe, the
// collected set does not depend on iteration order.
func sortedPositiveKeys(m map[string]int) []string {
	var out []string
	for k, v := range m {
		if v > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func sum(m map[string]int) int {
	s := 0
	for _, v := range m { // want nomaprange
		s += v
	}
	return s
}

func firstKey(m map[string]int) string {
	for k := range m { // want nomaprange
		return k
	}
	return ""
}

var (
	_ = stamp
	_ = nap
	_ = dur
	_ = sortedKeys
	_ = sortedPositiveKeys
	_ = sum
	_ = firstKey
)
