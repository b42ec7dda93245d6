package core

// Layered dedup/intern tables. A System forked from a solved base must
// see every key the base recorded without copying the base's maps, so
// each table is an optional frozen base layer plus a private overlay.
// Only the overlay is ever written; the base is shared read-only between
// any number of concurrent forks.

// seenSet is a set of comparable keys with an optional frozen base.
type seenSet[K comparable] struct {
	base map[K]struct{}
	own  map[K]struct{}
}

func newSeenSet[K comparable]() seenSet[K] {
	return seenSet[K]{own: make(map[K]struct{})}
}

func (s *seenSet[K]) has(k K) bool {
	if _, ok := s.own[k]; ok {
		return true
	}
	_, ok := s.base[k]
	return ok
}

// add inserts k, reporting whether it was absent.
func (s *seenSet[K]) add(k K) bool {
	if s.has(k) {
		return false
	}
	s.own[k] = struct{}{}
	return true
}

// fork returns a set that sees every current element through a shared
// frozen base and writes only to a fresh overlay. The receiver must not
// be written afterwards (Fork's quiescence contract).
func (s *seenSet[K]) fork() seenSet[K] {
	base := s.base
	if len(s.own) > 0 {
		if base == nil {
			base = s.own
		} else {
			merged := make(map[K]struct{}, len(base)+len(s.own))
			for k := range base {
				merged[k] = struct{}{}
			}
			for k := range s.own {
				merged[k] = struct{}{}
			}
			base = merged
		}
	}
	return seenSet[K]{base: base, own: make(map[K]struct{})}
}

// internMap is a key-to-value intern table with an optional frozen base.
type internMap[K comparable, V any] struct {
	base map[K]V
	own  map[K]V
}

func newInternMap[K comparable, V any]() internMap[K, V] {
	return internMap[K, V]{own: make(map[K]V)}
}

func (m *internMap[K, V]) get(k K) (V, bool) {
	if v, ok := m.own[k]; ok {
		return v, true
	}
	v, ok := m.base[k]
	return v, ok
}

func (m *internMap[K, V]) put(k K, v V) { m.own[k] = v }

// fork mirrors seenSet.fork.
func (m *internMap[K, V]) fork() internMap[K, V] {
	base := m.base
	if len(m.own) > 0 {
		if base == nil {
			base = m.own
		} else {
			merged := make(map[K]V, len(base)+len(m.own))
			for k, v := range base {
				merged[k] = v
			}
			for k, v := range m.own {
				merged[k] = v
			}
			base = merged
		}
	}
	return internMap[K, V]{base: base, own: make(map[K]V)}
}
