//! A DIF-style textual interchange format for dataflow graphs.
//!
//! The paper's research lineage uses the *Dataflow Interchange Format*
//! (DIF) to move graphs between tools; this module provides a compact
//! dialect sufficient for SPI systems so graphs can live in version
//! control, be diffed, and round-trip through external generators:
//!
//! ```text
//! graph lpc {
//!   actor A exec 100;
//!   actor B exec 200;
//!   edge A -> B produce 2 consume 3 delay 1 bytes 4;
//!   edge A -> B produce dyn 10 consume dyn 8 bytes 4;
//! }
//! ```
//!
//! `produce`/`consume` accept either a static count or `dyn <bound>`;
//! `delay` defaults to 0. Comments run from `#` to end of line.

use std::collections::HashMap;

use crate::error::{DataflowError, Result};
use crate::graph::{Rate, SdfGraph};

/// Serializes `graph` to the DIF dialect.
pub fn to_dif(graph: &SdfGraph, name: &str) -> String {
    let mut out = format!("graph {name} {{\n");
    for (_, actor) in graph.actors() {
        out.push_str(&format!(
            "  actor {} exec {};\n",
            actor.name, actor.exec_cycles
        ));
    }
    for (_, e) in graph.edges() {
        let rate = |r: Rate| match r {
            Rate::Static(n) => n.to_string(),
            Rate::Dynamic { bound } => format!("dyn {bound}"),
        };
        out.push_str(&format!(
            "  edge {} -> {} produce {} consume {} delay {} bytes {};\n",
            graph.actor(e.src).name,
            graph.actor(e.dst).name,
            rate(e.produce),
            rate(e.consume),
            e.delay,
            e.token_bytes,
        ));
    }
    out.push_str("}\n");
    out
}

/// Parses the DIF dialect back into a graph.
///
/// # Errors
///
/// [`DataflowError::Parse`] with a line number and message on any
/// syntactic or referential problem (unknown actor names, duplicate
/// actors, malformed rates).
pub fn from_dif(text: &str) -> Result<SdfGraph> {
    let mut graph = SdfGraph::new();
    let mut actors: HashMap<String, crate::graph::ActorId> = HashMap::new();
    let mut in_graph = false;
    let mut closed = false;

    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| DataflowError::Parse {
            line: lineno + 1,
            message,
        };

        if !in_graph {
            let mut toks = line.split_whitespace();
            if toks.next() != Some("graph") {
                return Err(err("expected `graph <name> {`".into()));
            }
            let _name = toks
                .next()
                .ok_or_else(|| err("missing graph name".into()))?;
            if toks.next() != Some("{") {
                return Err(err("expected `{` after graph name".into()));
            }
            in_graph = true;
            continue;
        }
        if line == "}" {
            closed = true;
            continue;
        }
        if closed {
            return Err(err("content after closing `}`".into()));
        }

        let line = line
            .strip_suffix(';')
            .ok_or_else(|| err("statements end with `;`".into()))?
            .trim();
        let mut toks = line.split_whitespace().peekable();
        match toks.next() {
            Some("actor") => {
                let name = toks
                    .next()
                    .ok_or_else(|| err("actor needs a name".into()))?
                    .to_string();
                if toks.next() != Some("exec") {
                    return Err(err("expected `exec <cycles>`".into()));
                }
                let cycles: u64 = toks
                    .next()
                    .ok_or_else(|| err("missing exec cycles".into()))?
                    .parse()
                    .map_err(|_| err("exec cycles must be an integer".into()))?;
                if actors.contains_key(&name) {
                    return Err(err(format!("duplicate actor `{name}`")));
                }
                let id = graph.add_actor(name.clone(), cycles);
                actors.insert(name, id);
            }
            Some("edge") => {
                let src_name = toks
                    .next()
                    .ok_or_else(|| err("edge needs a source".into()))?;
                if toks.next() != Some("->") {
                    return Err(err("expected `->`".into()));
                }
                let dst_name = toks
                    .next()
                    .ok_or_else(|| err("edge needs a destination".into()))?;
                let src = *actors
                    .get(src_name)
                    .ok_or_else(|| err(format!("unknown actor `{src_name}`")))?;
                let dst = *actors
                    .get(dst_name)
                    .ok_or_else(|| err(format!("unknown actor `{dst_name}`")))?;

                let mut produce = None;
                let mut consume = None;
                let mut delay = 0u64;
                let mut bytes = None;
                while let Some(key) = toks.next() {
                    let parse_rate = |toks: &mut std::iter::Peekable<std::str::SplitWhitespace>| -> Result<Rate> {
                        match toks.next() {
                            Some("dyn") => {
                                let bound: u32 = toks
                                    .next()
                                    .ok_or_else(|| err("`dyn` needs a bound".into()))?
                                    .parse()
                                    .map_err(|_| err("rate bound must be an integer".into()))?;
                                Ok(Rate::Dynamic { bound })
                            }
                            Some(tok) => Ok(Rate::Static(
                                tok.parse()
                                    .map_err(|_| err(format!("bad rate `{tok}`")))?,
                            )),
                            None => Err(err("missing rate value".into())),
                        }
                    };
                    match key {
                        "produce" => produce = Some(parse_rate(&mut toks)?),
                        "consume" => consume = Some(parse_rate(&mut toks)?),
                        "delay" => {
                            delay = toks
                                .next()
                                .ok_or_else(|| err("missing delay value".into()))?
                                .parse()
                                .map_err(|_| err("delay must be an integer".into()))?;
                        }
                        "bytes" => {
                            bytes = Some(
                                toks.next()
                                    .ok_or_else(|| err("missing bytes value".into()))?
                                    .parse::<u32>()
                                    .map_err(|_| err("bytes must be an integer".into()))?,
                            );
                        }
                        other => return Err(err(format!("unknown edge attribute `{other}`"))),
                    }
                }
                let produce = produce.ok_or_else(|| err("edge needs `produce`".into()))?;
                let consume = consume.ok_or_else(|| err("edge needs `consume`".into()))?;
                let bytes = bytes.ok_or_else(|| err("edge needs `bytes`".into()))?;
                graph
                    .add_edge_with_rates(src, dst, produce, consume, delay, bytes)
                    .map_err(|e| err(e.to_string()))?;
            }
            Some(other) => return Err(err(format!("unknown statement `{other}`"))),
            None => return Err(err("empty statement `;`".into())),
        }
    }
    if !in_graph || !closed {
        return Err(DataflowError::Parse {
            line: text.lines().count(),
            message: "unterminated graph block".into(),
        });
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# application 1, reduced
graph lpc {
  actor A exec 100;
  actor B exec 200;   # the FFT
  actor C exec 150;
  edge A -> B produce 2 consume 3 delay 1 bytes 4;
  edge B -> C produce dyn 10 consume dyn 8 bytes 4;
}
"#;

    #[test]
    fn bare_semicolon_is_a_parse_error() {
        for text in ["graph g {\n;\n}\n", "graph g {\n  ;  \n}\n"] {
            match from_dif(text) {
                Err(DataflowError::Parse { line, message }) => {
                    assert_eq!(line, 2, "{message}");
                }
                other => panic!("{text:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn parses_sample() {
        let g = from_dif(SAMPLE).unwrap();
        assert_eq!(g.actor_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let a = g.actor_by_name("A").unwrap();
        assert_eq!(g.actor(a).exec_cycles, 100);
        let (_, e0) = g.edges().next().unwrap();
        assert_eq!(e0.produce, Rate::Static(2));
        assert_eq!(e0.delay, 1);
        let dyn_edge = g.edges().nth(1).unwrap().1;
        assert_eq!(dyn_edge.produce, Rate::Dynamic { bound: 10 });
        assert_eq!(dyn_edge.consume, Rate::Dynamic { bound: 8 });
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let g = from_dif(SAMPLE).unwrap();
        let text = to_dif(&g, "lpc");
        let g2 = from_dif(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "graph g {\n  actor A exec ten;\n}\n";
        match from_dif(bad) {
            Err(DataflowError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("integer"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_actor_in_edge_rejected() {
        let bad = "graph g {\n  actor A exec 1;\n  edge A -> Z produce 1 consume 1 bytes 4;\n}\n";
        assert!(matches!(
            from_dif(bad),
            Err(DataflowError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn duplicate_actor_rejected() {
        let bad = "graph g {\n  actor A exec 1;\n  actor A exec 2;\n}\n";
        assert!(from_dif(bad).is_err());
    }

    #[test]
    fn missing_attributes_rejected() {
        let bad = "graph g {\n  actor A exec 1;\n  actor B exec 1;\n  edge A -> B produce 1 bytes 4;\n}\n";
        match from_dif(bad) {
            Err(DataflowError::Parse { message, .. }) => assert!(message.contains("consume")),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_block_rejected() {
        assert!(from_dif("graph g {\n actor A exec 1;\n").is_err());
        assert!(from_dif("").is_err());
    }

    #[test]
    fn delay_defaults_to_zero() {
        let g = from_dif(
            "graph g {\n actor A exec 1;\n actor B exec 1;\n edge A -> B produce 1 consume 1 bytes 4;\n}\n",
        )
        .unwrap();
        assert_eq!(g.edges().next().unwrap().1.delay, 0);
    }

    #[test]
    fn zero_rate_rejected_with_location() {
        let bad =
            "graph g {\n actor A exec 1;\n actor B exec 1;\n edge A -> B produce 0 consume 1 bytes 4;\n}\n";
        assert!(matches!(
            from_dif(bad),
            Err(DataflowError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn apps_graphs_roundtrip() {
        // Serialize a real application graph and parse it back.
        let mut g = SdfGraph::new();
        let a = g.add_actor("reader", 10);
        let b = g.add_actor("worker", 20);
        let c = g.add_actor("writer", 5);
        g.add_dynamic_edge(a, b, 64, 64, 0, 8).unwrap();
        g.add_edge(b, c, 4, 2, 2, 8).unwrap();
        let text = to_dif(&g, "demo");
        assert_eq!(from_dif(&text).unwrap(), g);
    }
}
