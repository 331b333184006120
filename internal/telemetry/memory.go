package telemetry

// StoreMemory is a point-in-time memory accounting of a store: the
// dictionary, the triple indexes, the geometry index and the caches
// that dominate the process's heap, plus how often the indexes were
// brought up to date after loads. rdf.Store fills the dictionary and
// index fields; geostore.Store adds the spatial fields. Exposed as
// store_memory_* gauges and store_index_*/store_rtree_* counters on
// /metrics and verbatim under GET /debug/store.
type StoreMemory struct {
	// DictTerms is the number of interned terms; DictBytes is the total
	// text bytes they hold (value + datatype + language tag), excluding
	// Go header overhead — the comparable, allocator-independent part.
	DictTerms int64 `json:"dict_terms"`
	DictBytes int64 `json:"dict_bytes"`
	// IndexTriples maps index name (spo, pos, osp, pending) to its
	// encoded-triple count; IndexBytes is their summed payload size.
	IndexTriples map[string]int64 `json:"index_triples"`
	IndexBytes   int64            `json:"index_bytes"`
	// DedupEntries is the size of the write-path dedup set (0 while it
	// is lazily unbuilt after a snapshot install).
	DedupEntries int64 `json:"dedup_entries"`
	// IndexFlushes counts the merges of a pending run into the sorted
	// indexes (one per first read after a write) and IndexFlushSeconds is
	// the time they held the store's write lock, both since start.
	IndexFlushes      int64   `json:"index_flushes"`
	IndexFlushSeconds float64 `json:"index_flush_seconds"`

	// Geometries is the number of parsed geometries held by geostore;
	// RTreeNodes/RTreeEntries size the spatial index; PlanCacheEntries
	// counts cached compiled query plans.
	Geometries       int64 `json:"geometries"`
	RTreeNodes       int64 `json:"rtree_nodes"`
	RTreeEntries     int64 `json:"rtree_entries"`
	PlanCacheEntries int64 `json:"plan_cache_entries"`
	// RTreeBulkLoads and RTreeInsertBuilds count, since start, the R-tree
	// refreshes that repacked the whole tree and those that inserted only
	// the geometries registered since the previous one.
	RTreeBulkLoads    int64 `json:"rtree_bulk_loads"`
	RTreeInsertBuilds int64 `json:"rtree_insert_builds"`
}

// TriplesIndexed returns the summed index triple counts (the spo count
// approximates distinct triples; pos/osp/pending are the overhead
// copies).
func (m *StoreMemory) TriplesIndexed() int64 {
	var n int64
	for _, v := range m.IndexTriples {
		n += v
	}
	return n
}
