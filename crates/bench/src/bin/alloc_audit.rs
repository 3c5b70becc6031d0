//! Allocation audit for the ingest path.
//!
//! Counts heap allocations (via a counting `#[global_allocator]`) for
//! the zero-copy JSONL decoder against the `serde_json` reference path,
//! over the same synthesized corpus, and asserts two properties:
//!
//! * the zero-copy decoder stays under fixed per-record steady-state
//!   ceilings — allocations and bytes, decode-only and document load;
//! * it allocates at least `MIN_REDUCTION`× less per record than the
//!   reference path.
//!
//! Two measurements are reported:
//!
//! * **decode-only**: a session-lifetime `JsonlDecoder` re-decoding the
//!   corpus line by line after a warm-up pass (so the symbol pool is
//!   fully populated — this is the steady state a long-lived ingest
//!   session sees), vs `serde_json::from_str::<Element>` per line;
//! * **document load**: `from_jsonl_with_policy` vs the `_reference`
//!   variant, end to end including graph assembly.
//!
//! The counting allocator is gated behind the bench-only `alloc-count`
//! feature so nothing else in the workspace pays for the atomics:
//!
//! ```text
//! cargo run --release -p pg-bench --features alloc-count --bin alloc_audit
//! ```
//!
//! Results land in `results/alloc_audit.json`.

#[cfg(not(feature = "alloc-count"))]
fn main() {
    eprintln!(
        "alloc_audit: built without the counting allocator; rebuild with\n  \
         cargo run --release -p pg-bench --features alloc-count --bin alloc_audit"
    );
}

#[cfg(feature = "alloc-count")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// Forwards to the system allocator, counting every allocation and
    /// reallocation. Deallocations are free, so the counters measure
    /// allocator *traffic*, not live bytes.
    pub struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// (allocation count, bytes requested) since process start.
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

#[cfg(feature = "alloc-count")]
#[path = "../../../store/tests/reference/mod.rs"]
mod reference;

#[cfg(feature = "alloc-count")]
fn main() {
    use pg_store::jsonl::{from_jsonl_with_policy, to_jsonl, Element};
    use pg_store::{ErrorPolicy, JsonlDecoder};
    use pg_synth::{random_schema, synthesize, NoiseProfile, SchemaParams, SynthSpec};
    use reference::from_jsonl_with_policy_reference;

    /// Per-record steady-state ceilings for the zero-copy decoder:
    /// measured + 25 %. A decoded element owns one exact-size property
    /// vector and its string values — label sets and symbols are pooled
    /// (DESIGN.md §3m) — so the floor is not zero, but it is a small
    /// constant independent of line length. Counts repeat exactly, so
    /// these gates are immune to runner noise.
    const DECODE_CEILING: f64 = 1.5;
    const DECODE_BYTES_CEILING: f64 = 95.0;
    /// Document load adds the graph's dense stores and id → position
    /// maps (growth reallocations count at their full new size).
    const LOAD_BYTES_CEILING: f64 = 415.0;
    /// Required per-record allocation reduction vs the reference path.
    const MIN_REDUCTION: f64 = 10.0;

    const SIZE: usize = 100_000;
    const SEED: u64 = 42;

    // Same workload shape as bench_discovery, so the corpus here is the
    // corpus the timing benchmarks run over.
    let params = SchemaParams {
        node_types: 8,
        edge_types: 6,
        ..Default::default()
    };
    let noise = NoiseProfile {
        unlabeled_fraction: 0.05,
        missing_optional_rate: 0.3,
        ..NoiseProfile::clean()
    };
    let schema = random_schema(&params, SEED);
    let spec = SynthSpec::new(schema).sized_for(SIZE).with_noise(noise);
    let out = synthesize(&spec, SEED);
    let doc = to_jsonl(&out.graph);
    let records = (out.graph.node_count() + out.graph.edge_count()) as f64;
    let lines: Vec<&str> = doc.lines().filter(|l| !l.trim().is_empty()).collect();
    eprintln!(
        "corpus: {} records, {:.1} MiB",
        lines.len(),
        doc.len() as f64 / (1024.0 * 1024.0)
    );

    // --- decode-only, steady state ----------------------------------
    // Warm-up pass populates the decoder's symbol pool; the measured
    // pass then sees the long-lived-session steady state.
    let mut decoder = JsonlDecoder::new();
    for line in &lines {
        decoder.decode_element(line).expect("clean corpus");
    }
    let (a0, b0) = counting::snapshot();
    for line in &lines {
        let elem = decoder.decode_element(line).expect("clean corpus");
        std::hint::black_box(&elem);
    }
    let (a1, b1) = counting::snapshot();
    let decode_allocs = (a1 - a0) as f64 / records;
    let decode_bytes = (b1 - b0) as f64 / records;

    let (a0, b0) = counting::snapshot();
    for line in &lines {
        let elem: Element = serde_json::from_str(line).expect("clean corpus");
        std::hint::black_box(&elem);
    }
    let (a1, b1) = counting::snapshot();
    let decode_ref_allocs = (a1 - a0) as f64 / records;
    let decode_ref_bytes = (b1 - b0) as f64 / records;

    // --- document load, end to end ----------------------------------
    let (a0, b0) = counting::snapshot();
    let (g, _) = from_jsonl_with_policy(&doc, ErrorPolicy::Strict).expect("clean corpus");
    let (a1, b1) = counting::snapshot();
    std::hint::black_box(&g);
    let load_allocs = (a1 - a0) as f64 / records;
    let load_bytes = (b1 - b0) as f64 / records;

    let (a0, b0) = counting::snapshot();
    let (g_ref, _) =
        from_jsonl_with_policy_reference(&doc, ErrorPolicy::Strict).expect("clean corpus");
    let (a1, b1) = counting::snapshot();
    std::hint::black_box(&g_ref);
    let load_ref_allocs = (a1 - a0) as f64 / records;
    let load_ref_bytes = (b1 - b0) as f64 / records;

    let decode_reduction = decode_ref_allocs / decode_allocs;
    let load_reduction = load_ref_allocs / load_allocs;

    eprintln!("decode-only  per record: {decode_allocs:.2} allocs ({decode_bytes:.0} B) zero-copy vs {decode_ref_allocs:.2} allocs ({decode_ref_bytes:.0} B) reference — {decode_reduction:.1}x fewer");
    eprintln!("document load per record: {load_allocs:.2} allocs ({load_bytes:.0} B) zero-copy vs {load_ref_allocs:.2} allocs ({load_ref_bytes:.0} B) reference — {load_reduction:.1}x fewer");

    let report = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"alloc_audit\",\n",
            "  \"seed\": {seed},\n",
            "  \"records\": {records},\n",
            "  \"bytes\": {bytes},\n",
            "  \"decode_only\": {{\n",
            "    \"allocs_per_record\": {da:.4},\n",
            "    \"bytes_per_record\": {db:.1},\n",
            "    \"reference_allocs_per_record\": {dra:.4},\n",
            "    \"reference_bytes_per_record\": {drb:.1},\n",
            "    \"reduction\": {dred:.2},\n",
            "    \"ceiling\": {ceil:.1},\n",
            "    \"bytes_ceiling\": {bceil:.1}\n",
            "  }},\n",
            "  \"document_load\": {{\n",
            "    \"allocs_per_record\": {la:.4},\n",
            "    \"bytes_per_record\": {lb:.1},\n",
            "    \"reference_allocs_per_record\": {lra:.4},\n",
            "    \"reference_bytes_per_record\": {lrb:.1},\n",
            "    \"reduction\": {lred:.2},\n",
            "    \"bytes_ceiling\": {lceil:.1}\n",
            "  }}\n",
            "}}\n"
        ),
        seed = SEED,
        records = records as u64,
        bytes = doc.len(),
        da = decode_allocs,
        db = decode_bytes,
        dra = decode_ref_allocs,
        drb = decode_ref_bytes,
        dred = decode_reduction,
        ceil = DECODE_CEILING,
        bceil = DECODE_BYTES_CEILING,
        lceil = LOAD_BYTES_CEILING,
        la = load_allocs,
        lb = load_bytes,
        lra = load_ref_allocs,
        lrb = load_ref_bytes,
        lred = load_reduction,
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/alloc_audit.json", &report).expect("write results/alloc_audit.json");
    eprintln!("wrote results/alloc_audit.json");

    assert!(
        decode_allocs <= DECODE_CEILING,
        "zero-copy decode allocates {decode_allocs:.2}/record, ceiling is {DECODE_CEILING}"
    );
    assert!(
        decode_bytes <= DECODE_BYTES_CEILING,
        "zero-copy decode allocates {decode_bytes:.0} B/record, ceiling is {DECODE_BYTES_CEILING}"
    );
    assert!(
        load_bytes <= LOAD_BYTES_CEILING,
        "document load allocates {load_bytes:.0} B/record, ceiling is {LOAD_BYTES_CEILING}"
    );
    assert!(
        decode_reduction >= MIN_REDUCTION,
        "decode reduction {decode_reduction:.2}x below required {MIN_REDUCTION}x"
    );
    eprintln!(
        "alloc_audit: OK (decode <= {DECODE_CEILING} allocs and {DECODE_BYTES_CEILING} B, \
         load <= {LOAD_BYTES_CEILING} B, reduction >= {MIN_REDUCTION}x)"
    );
}
