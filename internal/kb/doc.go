// Package kb implements the cross-domain knowledge base substrate the
// pipeline extends. It substitutes for the DBpedia 2014 release the paper
// uses: a class hierarchy, typed properties, instances with labels,
// abstracts and facts, and a popularity score per instance (substituting
// the Wikipedia page-link dataset used by the POPULARITY metric). The
// package also provides profiling (instance/fact counts and property
// densities, Tables 1-2).
//
// # Columnar storage
//
// Instances are not stored as structs. Each class owns a columnar store
// (columnar.go): struct-of-arrays slices for the per-row fields and one
// sparse fact column per schema property, the columns keyed by the class
// schema's PropertyID order (ascending). Labels and the string payloads
// of fact values are interned through a per-KB strsim.Interner, so the
// heavy repetition of nominal values and referenced labels across a
// grown KB is stored once; a fact costs ~32 bytes plus its share of the
// intern pool instead of a ~96-byte map entry with private strings.
//
// Readers use the O(1)/O(log n) accessors — Fact, InstanceClass,
// InstanceLabel, ForEachFact, ForEachFactOfClass and friends — on the
// hot paths. Instance returns a materialized copy-on-read view: a
// standalone *Instance assembled from the columns that the caller may
// retain or mutate freely, because mutations cannot reach the store.
// ForEachFact iterates in ascending PropertyID order, the package's
// canonical order (SortedPropertyIDs), so float accumulations over facts
// are deterministic.
//
// A KB supports safe concurrent post-construction growth: AddInstance and
// AddClass may run while other goroutines read or search, and every
// mutation bumps a monotonic Version counter that downstream caches
// (match.Context profiles, newdet.Detector candidates, the serve LRU)
// key their validity on. Instances written back by the incremental
// ingestion engine carry a Provenance marker and the ingest epoch that
// created them.
//
// # Snapshots
//
// Persistence (snapshot.go) is append-only and epoch-oriented. A
// snapshot directory holds numbered instance segments
// (segment-NNNNNN.ndjson, each a run of ingested instances in write-back
// order) plus manifest.json describing the chain. SaveSnapshot writes
// only the instances ingested since the manifest's chain was last
// extended — one new segment per call, or none when nothing changed —
// then commits by rewriting the manifest via temp-file+rename+fsync:
// the manifest is written last, so a crash at any point leaves the
// previous complete snapshot loadable. LoadSnapshot replays the chain
// in order. CompactSnapshot merges the chain into a single segment
// under the same manifest-last discipline and then deletes unreferenced
// segment files, so a crash mid-compaction also leaves a loadable
// directory (plus, at worst, orphan files the next compaction removes).
// ReadManifest accepts only the segmented format and only canonical
// segment file names, so a manifest cannot reach outside its directory.
package kb
