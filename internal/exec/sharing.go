package exec

import "repro/internal/core"

// RefsOf is inert — the planner's sharing analysis it fed is gone, and nothing
// reads what it returns; it stays because the frozen benchmark
// (bench/layers.go) calls it. ROADMAP item 25 deletes it.
func RefsOf(*core.Warehouse) any { return nil }

// WidthOf is inert like RefsOf; ROADMAP item 25 deletes it.
func WidthOf(*core.Warehouse) any { return nil }

// PairsOf is inert like RefsOf; ROADMAP item 25 deletes it.
func PairsOf(*core.Warehouse) any { return nil }
