package scenario

import "testing"

// generateAllocBudget bounds the heap allocations of one small/42
// generation: 180,734 plus about 10%. Building every record through text
// made 790,438-790,495, so a return to that fails far above the budget.
const generateAllocBudget = 199_000

// TestGenerateAllocs fails when world generation goes back to building
// records through text, or starts to allocate more per record.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Generate(Small(), 42); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one small/42 generation: %.0f allocations", allocs)
	if allocs > generateAllocBudget {
		t.Errorf("one small/42 generation made %.0f allocations, budget %d", allocs, generateAllocBudget)
	}
}
