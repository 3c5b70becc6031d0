//! Hostile bytes for the CSV loader: a mutation battery over
//! `graph_from_csv_with_policy`, which reads every `--nodes` / `--edges`
//! pair the CLI is given.
//!
//! Seeds are the node and edge files `nodes_to_csv` / `edges_to_csv`
//! write for a graph with every typed column (ints, floats, booleans,
//! dates, datetimes, strings that need quoting: commas, quotes, newlines,
//! carriage returns, non-ASCII), multi-label and unlabelled elements,
//! and empty cells. Structure-aware mutations work on the record grid:
//! they drop, duplicate, swap and rename header columns, drop, duplicate
//! and re-width rows, and put values at the edges of each type's range
//! (and label cells with empty segments) into cells; the grid is then
//! written back with minimal, forced or no quoting, and byte-level ones
//! cut the text or insert a stray quote, carriage return or newline.
//!
//! Contract, under `Strict` and `Skip`: never a panic; the outcome is a
//! typed error or a self-consistent graph — one that `nodes_to_csv` /
//! `edges_to_csv` write back to files that read as the same graph; a
//! file `Strict` accepts, `Skip` accepts identically with an empty
//! quarantine; loading allocates in proportion to the input and returns
//! promptly.

use pg_model::{Date, DateTime, Edge, LabelSet, Node, NodeId, PropertyGraph};
use pg_store::csv::{edges_to_csv, graph_from_csv_with_policy, nodes_to_csv};
use pg_store::ErrorPolicy;
use proptest::prelude::*;
use std::time::Duration;

#[path = "../../core/tests/mutation/mod.rs"]
mod mutation;
use mutation::{allocation_bound, metered};

/// The seed graph: every typed column, quoting hazards, labels of every
/// arity, and absent properties.
fn seed_graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let date = Date::new(1999, 12, 31).unwrap();
    g.add_node(
        Node::new(1, LabelSet::from_iter(["Person", "Student"]))
            .with_prop("name", "Zoë, \"the\" brave\nline two\r")
            .with_prop("age", i64::MIN)
            .with_prop("score", -0.25f64)
            .with_prop("ok", true)
            .with_prop("born", date),
    )
    .unwrap();
    g.add_node(
        Node::new(2, LabelSet::single("Org"))
            .with_prop("url", "x.org")
            .with_prop("age", 41i64)
            .with_prop("seen", DateTime::new(date, 23, 59, 58).unwrap()),
    )
    .unwrap();
    g.add_node(Node::new(u64::MAX, LabelSet::empty()).with_prop("score", 1e300f64))
        .unwrap();
    g.add_edge(
        Edge::new(9, NodeId(1), NodeId(2), LabelSet::single("WORKS_AT"))
            .with_prop("since", 2015i64)
            .with_prop("note", "a,b"),
    )
    .unwrap();
    g.add_edge(
        Edge::new(10, NodeId(u64::MAX), NodeId(1), LabelSet::empty()).with_prop("w", 0.5f64),
    )
    .unwrap();
    g
}

/// Split CSV text into a grid of fields (a test-side reader: quotes,
/// doubled quotes and embedded newlines, nothing more).
fn grid(text: &str) -> Vec<Vec<String>> {
    let (mut rows, mut row, mut cur) = (Vec::new(), Vec::new(), String::new());
    let mut chars = text.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (true, '"') if chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            (true, '"') => quoted = false,
            (true, c) => cur.push(c),
            (false, '"') => quoted = true,
            (false, ',') => row.push(std::mem::take(&mut cur)),
            (false, '\n') => {
                row.push(std::mem::take(&mut cur));
                rows.push(std::mem::take(&mut row));
            }
            (false, c) => cur.push(c),
        }
    }
    if !cur.is_empty() || !row.is_empty() {
        row.push(cur);
        rows.push(row);
    }
    rows
}

/// Values at the edges of each type the loader infers, and label cells
/// with empty or odd segments.
const VALUES: &[&str] = &[
    "",
    "0",
    "-0",
    "+5",
    " 7 ",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "1e15",
    "1000000000000000",
    "1e308",
    "1e309",
    "NaN",
    "inf",
    "-0.0",
    "1e-7",
    "true",
    "TRUE",
    "2020-02-30",
    "2020-02-29",
    "0000-01-01",
    "31/12/1999",
    "1999-12-31T23:59:60",
    "1999-12-31 23:59:58.5+01:00",
    "a\"b",
    "\"",
    "a,b",
    "x\ny",
    "\r",
    ";",
    "A;;B",
    ";A",
    "é😀",
    "id",
    "labels",
];

fn pick<T>(items: &[T], a: u64) -> Option<usize> {
    (!items.is_empty()).then(|| (a % items.len() as u64) as usize)
}

/// One structure-aware mutation of the grid; `a` and `b` choose where
/// and what.
fn mutate(rows: &mut Vec<Vec<String>>, kind: u8, a: u64, b: u64) {
    match kind {
        // A header column: drop, duplicate, swap with another, rename.
        0..=3 => {
            let Some(header) = rows.first_mut() else {
                return;
            };
            let Some(i) = pick(header, a) else { return };
            let j = (b % header.len() as u64) as usize;
            match kind {
                0 => {
                    header.remove(i);
                }
                1 => header.insert(j, header[i].clone()),
                2 => header.swap(i, j),
                _ => header[i] = VALUES[(b % VALUES.len() as u64) as usize].to_owned(),
            }
        }
        // A row: drop, duplicate, drop a field, add a field.
        4..=7 => {
            let Some(r) = pick(rows, a) else { return };
            match kind {
                4 => {
                    rows.remove(r);
                }
                5 => {
                    let copy = rows[r].clone();
                    rows.insert((b % rows.len() as u64) as usize, copy);
                }
                6 => {
                    if let Some(i) = pick(&rows[r], b) {
                        rows[r].remove(i);
                    }
                }
                _ => {
                    let at = (b % (rows[r].len() as u64 + 1)) as usize;
                    rows[r].insert(at, VALUES[(b >> 8) as usize % VALUES.len()].to_owned());
                }
            }
        }
        // A cell gets a value from the palette (half of all steps).
        _ => {
            let Some(r) = pick(rows, a) else { return };
            if let Some(i) = pick(&rows[r], a >> 16) {
                rows[r][i] = VALUES[(b % VALUES.len() as u64) as usize].to_owned();
            }
        }
    }
}

/// Write the grid back: quote where needed (`style` 0), always (1), or
/// never (2, which leaves separators inside fields bare).
fn render(rows: &[Vec<String>], style: u8) -> String {
    let field = |f: &String| match style {
        0 if f.contains([',', '"', '\n', '\r']) => format!("\"{}\"", f.replace('"', "\"\"")),
        1 => format!("\"{}\"", f.replace('"', "\"\"")),
        _ => f.clone(),
    };
    rows.iter()
        .map(|row| row.iter().map(field).collect::<Vec<_>>().join(",") + "\n")
        .collect()
}

/// Cut the text (`kind` 0) or insert a stray quote, carriage return or
/// newline (1–3) at a char boundary chosen by `a`.
fn mutate_bytes(text: &mut String, kind: u8, a: u64) {
    let mut at = (a % (text.len() as u64 + 1)) as usize;
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    match kind {
        0 => text.truncate(at),
        1 => text.insert(at, '"'),
        2 => text.insert(at, '\r'),
        _ => text.insert(at, '\n'),
    }
}

/// Whether two graphs hold the same elements in the same order.
fn same_graph(a: &PropertyGraph, b: &PropertyGraph) -> bool {
    a.nodes().eq(b.nodes()) && a.edges().eq(b.edges())
}

/// The first element where two graphs differ, for a failure message.
fn first_difference(a: &PropertyGraph, b: &PropertyGraph) -> String {
    let nodes = a.nodes().zip(b.nodes()).find(|(x, y)| x != y);
    let edges = a.edges().zip(b.edges()).find(|(x, y)| x != y);
    format!("{nodes:?} {edges:?}")
}

/// Load `nodes` + `edges` under the battery's contract; `Ok(true)` if
/// `Strict` accepted them.
fn check(nodes: &str, edges: &str) -> Result<bool, TestCaseError> {
    let input = nodes.len() + edges.len();
    let load = |policy| {
        let (outcome, requested, elapsed) =
            metered(|| graph_from_csv_with_policy(nodes, edges, policy));
        prop_assert!(
            requested <= allocation_bound(input),
            "loading asked for {requested} bytes on {input} bytes of CSV"
        );
        prop_assert!(elapsed < Duration::from_secs(5), "loading took {elapsed:?}");
        Ok(outcome)
    };
    let strict = load(ErrorPolicy::Strict)?;
    let skip = load(ErrorPolicy::Skip)?;
    if let Ok((graph, _)) = &skip {
        let (n, e) = (nodes_to_csv(graph), edges_to_csv(graph));
        match graph_from_csv_with_policy(&n, &e, ErrorPolicy::Strict) {
            Ok((again, _)) => prop_assert!(
                same_graph(graph, &again),
                "the loaded graph writes back as another: {}\n{n}\n{e}",
                first_difference(graph, &again)
            ),
            Err(err) => prop_assert!(
                false,
                "the loaded graph writes back unreadable: {err}\n{n}\n{e}"
            ),
        }
    }
    match (&strict, &skip) {
        (Ok((a, q)), Ok((b, r))) => {
            prop_assert!(q.is_empty() && r.is_empty(), "{q:?} {r:?}");
            prop_assert!(same_graph(a, b), "Strict and Skip loaded other graphs");
            Ok(true)
        }
        (Ok(_), Err(e)) => Err(TestCaseError::Fail(format!(
            "Skip refused what Strict took: {e}"
        ))),
        _ => Ok(false),
    }
}

fn seeds() -> (String, String) {
    let g = seed_graph();
    (nodes_to_csv(&g), edges_to_csv(&g))
}

#[test]
fn the_seed_loads_as_itself() {
    let (nodes, edges) = seeds();
    assert!(check(&nodes, &edges).unwrap());
    let (g, _) = graph_from_csv_with_policy(&nodes, &edges, ErrorPolicy::Strict).unwrap();
    assert!(same_graph(&g, &seed_graph()));
    for style in 0..2 {
        let again = (render(&grid(&nodes), style), render(&grid(&edges), style));
        assert!(check(&again.0, &again.1).unwrap(), "quoting style {style}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutants_load_consistently_or_are_refused(
        target in 0u8..2,
        steps in prop::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 0..4),
        style in 0u8..3,
        bytes in prop::collection::vec((0u8..4, any::<u64>()), 0..2),
    ) {
        let (mut nodes, mut edges) = seeds();
        let text = if target == 0 { &mut nodes } else { &mut edges };
        let mut rows = grid(text);
        for &(kind, a, b) in &steps {
            mutate(&mut rows, kind, a, b);
        }
        *text = render(&rows, style);
        for &(kind, a) in &bytes {
            mutate_bytes(text, kind, a);
        }
        check(&nodes, &edges)?;
    }
}
