package arena

import "testing"

func TestStatsString(t *testing.T) {
	s := Stats{Shards: 2, Slabs: 2, HighWater: 300}
	if got, want := s.String(), "arena: shards=2 slabs=2 highwater=300"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
