package registry

import (
	"sort"

	"repro/internal/zone"
)

// Zones returns the root zone and then every TLD zone in name order, for
// the tests outside the package that pin their content.
func (r *Registry) Zones() []*zone.Zone {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := []*zone.Zone{r.rootZone}
	for _, e := range r.tlds {
		out = append(out, e.zone)
	}
	sort.Slice(out[1:], func(i, j int) bool { return out[1+i].Origin() < out[1+j].Origin() })
	return out
}
