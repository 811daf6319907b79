//! The line-delimited wire protocol.
//!
//! One connection = one session. All traffic is UTF-8 lines.
//!
//! **Client → server.** A preamble of control verbs, then `BEGIN`,
//! then raw FASTA/FASTQ records, terminated by half-closing the write
//! side of the socket (there is no in-band terminator, so record
//! payloads can never collide with protocol framing). The half-close
//! also releases the session's last batch at once: its final reads do
//! not wait out the server's `--linger-ms`.
//!
//! ```text
//! SET backend cpu|gpu-sim|edlib|ksw2          pick this session's backend
//! SET format tsv|paf                          pick this session's output format
//! SET explain on|off                          stream per-read provenance lines
//! PING                                        liveness probe
//! STATS                                       one-line server-wide counters
//! STATS JSON                                  live registry snapshot as one JSON line
//! STATS PROM                                  Prometheus text exposition
//! STATS STREAM <ms>                           push stat frames every <ms> milliseconds
//! SHUTDOWN                                    ask the server to drain and exit
//! BEGIN                                       end of preamble, records follow
//! ```
//!
//! **Server → client.** Status lines are prefixed `# ` so they can
//! never be confused with records; every verb gets exactly one reply
//! (`# ok …`, `# pong`, `# stats …`, or `# err …`). After `BEGIN`, the
//! response stream carries alignment records (bare TSV/PAF lines,
//! byte-identical to `genasm align` on the same reads), interleaved
//! with `# err read …` lines for failed reads, and ends with
//! `# done …` followed by the server closing the connection.
//!
//! When the server runs with an idle timeout, it may interleave `# hb`
//! heartbeat lines at any point — in the verb loop while waiting for a
//! slow preamble, or in the response stream while the pipeline is
//! quiet. Clients must ignore them (they are not a reply to any verb).
//! The timeout also adds an `# err` variant a robust client should
//! expect: `# err input: idle timeout …` when the client went silent
//! mid-upload (the session is aborted but still ends with `# done`).
//! A client that reads its rows more slowly than the server makes them
//! gets no error: the server stops reading its upload until it catches
//! up, so it must read while it writes. Free-text payloads of
//! `# err read`/`# err input` lines (read names, parser messages) are
//! backslash-escaped like record name columns (`\t`, `\n`, `\r`, `\\`)
//! so hostile content cannot forge a line boundary. A preamble line
//! of more than 4096 bytes is answered `# err line too long` and the
//! server closes the connection.
//!
//! `SET explain on` opts the session into per-read provenance: after
//! `BEGIN`, one `# explain {json}` status line per submitted read
//! (schema `genasm-explain/v2`), interleaved with the record stream.
//! Explaining is passive — the record lines stay byte-identical to a
//! session without it.
//!
//! `STATS STREAM <ms>` turns the connection into a push feed: the
//! server emits one `# stat-frame {json}` line (schema
//! `genasm-stat-frame/v1` — uptime, sessions, the read-decision
//! funnel, interval rates, per-backend latency quantiles, slowest
//! reads) immediately and then every `<ms>` milliseconds until the
//! client closes the connection or the server starts draining (the
//! feed then ends with `# ok stream-end`). Records cannot follow —
//! the stream replaces the session.

use genasm_pipeline::{BackendKind, OutputFormat};

/// Prefix of every non-record line the server emits.
pub const STATUS_PREFIX: &str = "# ";

/// Prefix of error status lines.
pub const ERR_PREFIX: &str = "# err";

/// Prefix of the final per-session summary line.
pub const DONE_PREFIX: &str = "# done";

/// The idle heartbeat line. Not a reply to any verb — clients skip it
/// wherever it appears.
pub const HB_LINE: &str = "# hb";

/// Exposition format of a `STATS` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Bare `STATS`: the classic one-line `# stats …` summary.
    Line,
    /// `STATS JSON`: one `# stats-json {…}` line with the full live
    /// registry snapshot, per-session and per-backend breakdowns.
    Json,
    /// `STATS PROM`: Prometheus text exposition, one `# prom …` line
    /// per metric line, bracketed by `# prom-begin` / `# prom-end`.
    Prom,
}

/// A parsed client control verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verb {
    /// `SET backend <kind>`.
    SetBackend(BackendKind),
    /// `SET format <fmt>`.
    SetFormat(OutputFormat),
    /// `SET explain on|off`.
    SetExplain(bool),
    /// `BEGIN` — records follow.
    Begin,
    /// `PING`.
    Ping,
    /// `STATS [JSON|PROM]`.
    Stats(StatsFormat),
    /// `STATS STREAM <ms>` — push `# stat-frame` lines at this
    /// interval until the client hangs up or the server drains.
    StatsStream(u64),
    /// `SHUTDOWN` — drain and exit.
    Shutdown,
}

/// The verb's wire text: the one line [`parse_verb`] reads it back
/// from. (`STATS STREAM 0` is writable but refused by the parser.)
impl core::fmt::Display for Verb {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Verb::SetBackend(kind) => write!(f, "SET backend {kind}"),
            Verb::SetFormat(format) => write!(f, "SET format {format}"),
            Verb::SetExplain(on) => write!(f, "SET explain {}", if *on { "on" } else { "off" }),
            Verb::Begin => f.write_str("BEGIN"),
            Verb::Ping => f.write_str("PING"),
            Verb::Stats(StatsFormat::Line) => f.write_str("STATS"),
            Verb::Stats(StatsFormat::Json) => f.write_str("STATS JSON"),
            Verb::Stats(StatsFormat::Prom) => f.write_str("STATS PROM"),
            Verb::StatsStream(ms) => write!(f, "STATS STREAM {ms}"),
            Verb::Shutdown => f.write_str("SHUTDOWN"),
        }
    }
}

/// Parse one preamble line.
pub fn parse_verb(line: &str) -> Result<Verb, String> {
    let mut it = line.split_whitespace();
    let word = it.next().unwrap_or("");
    let verb = match word {
        "BEGIN" => Verb::Begin,
        "PING" => Verb::Ping,
        "STATS" => match it.next() {
            None => Verb::Stats(StatsFormat::Line),
            Some("JSON") => Verb::Stats(StatsFormat::Json),
            Some("PROM") => Verb::Stats(StatsFormat::Prom),
            Some("STREAM") => {
                let ms = it.next().ok_or("STATS STREAM needs an interval in ms")?;
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("bad STATS STREAM interval {ms:?}"))?;
                if ms == 0 {
                    return Err("STATS STREAM interval must be at least 1 ms".to_string());
                }
                Verb::StatsStream(ms)
            }
            Some(other) => {
                return Err(format!(
                    "unknown STATS format {other:?}; valid formats are JSON, PROM, STREAM <ms>"
                ))
            }
        },
        "SHUTDOWN" => Verb::Shutdown,
        "SET" => {
            let key = it.next().ok_or("SET needs a key and a value")?;
            let value = it
                .next()
                .ok_or_else(|| format!("SET {key} needs a value"))?;
            match key {
                "backend" => Verb::SetBackend(value.parse().map_err(|e| format!("{e}"))?),
                "format" => Verb::SetFormat(value.parse().map_err(|e| format!("{e}"))?),
                "explain" => match value {
                    "on" => Verb::SetExplain(true),
                    "off" => Verb::SetExplain(false),
                    other => {
                        return Err(format!(
                            "bad explain value {other:?}; valid values are 'on', 'off'"
                        ))
                    }
                },
                other => {
                    return Err(format!(
                        "unknown setting {other:?}; valid settings are 'backend', 'format', \
                         'explain'"
                    ))
                }
            }
        }
        other => {
            return Err(format!(
                "unknown verb {other:?}; valid verbs are SET, BEGIN, PING, STATS, SHUTDOWN"
            ))
        }
    };
    if let Some(junk) = it.next() {
        return Err(format!("unexpected trailing argument {junk:?}"));
    }
    Ok(verb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn verbs_parse() {
        assert_eq!(parse_verb("BEGIN").unwrap(), Verb::Begin);
        assert_eq!(parse_verb("PING").unwrap(), Verb::Ping);
        assert_eq!(parse_verb("STATS").unwrap(), Verb::Stats(StatsFormat::Line));
        assert_eq!(
            parse_verb("STATS JSON").unwrap(),
            Verb::Stats(StatsFormat::Json)
        );
        assert_eq!(
            parse_verb("STATS PROM").unwrap(),
            Verb::Stats(StatsFormat::Prom)
        );
        assert_eq!(parse_verb("SHUTDOWN").unwrap(), Verb::Shutdown);
        assert_eq!(
            parse_verb("SET backend edlib").unwrap(),
            Verb::SetBackend(BackendKind::Edlib)
        );
        assert_eq!(
            parse_verb("SET format paf").unwrap(),
            Verb::SetFormat(OutputFormat::Paf)
        );
        assert_eq!(
            parse_verb("SET explain on").unwrap(),
            Verb::SetExplain(true)
        );
        assert_eq!(
            parse_verb("SET explain off").unwrap(),
            Verb::SetExplain(false)
        );
        assert_eq!(
            parse_verb("STATS STREAM 250").unwrap(),
            Verb::StatsStream(250)
        );
    }

    /// Every verb the protocol has (streams at a few intervals).
    fn every_verb() -> Vec<Verb> {
        let mut verbs = vec![
            Verb::SetExplain(true),
            Verb::SetExplain(false),
            Verb::Begin,
            Verb::Ping,
            Verb::Stats(StatsFormat::Line),
            Verb::Stats(StatsFormat::Json),
            Verb::Stats(StatsFormat::Prom),
            Verb::Shutdown,
        ];
        verbs.extend(BackendKind::ALL.map(|(kind, _)| Verb::SetBackend(kind)));
        verbs.extend(OutputFormat::ALL.map(|(format, _)| Verb::SetFormat(format)));
        verbs.extend([1, 2, 250, 60_000, u64::MAX].map(Verb::StatsStream));
        verbs
    }

    #[test]
    fn every_verb_parses_back_from_its_wire_text() {
        for verb in every_verb() {
            assert_eq!(parse_verb(&verb.to_string()), Ok(verb.clone()), "{verb}");
        }
    }

    /// Protocol words and near misses for the mutations below.
    const WORDS: [&str; 16] = [
        "SET", "BEGIN", "STATS", "JSON", "STREAM", "backend", "format", "explain", "gpu-sim",
        "auto", "paf", "off", "007", "+7", "0", "set",
    ];

    proptest! {
        /// A valid verb's text under up to three token edits (replace,
        /// insert, delete; by a protocol word or by arbitrary scalar
        /// values — control, combining, astral) and arbitrary spacing.
        #[test]
        fn parse_verb_never_panics_and_accepts_only_what_round_trips(
            verb in 0usize..64,
            edits in prop::collection::vec(
                (0usize..8, 0usize..24, prop::collection::vec(any::<u32>(), 0..4)),
                0..4,
            ),
            gaps in prop::collection::vec(0usize..4, 8),
        ) {
            let verbs = every_verb();
            let text = verbs[verb % verbs.len()].to_string();
            let mut tokens: Vec<String> = text.split(' ').map(String::from).collect();
            for (at, word, noise) in edits {
                let new = match WORDS.get(word) {
                    Some(w) => w.to_string(),
                    None => noise.iter().filter_map(|c| char::from_u32(c % 0x11_0000)).collect(),
                };
                let at = at % (tokens.len() + 1);
                match (at < tokens.len(), word % 3) {
                    (true, 0) => tokens[at] = new,
                    (true, 1) => drop(tokens.remove(at)),
                    _ => tokens.insert(at, new),
                }
            }
            let mut line = String::new();
            for (token, gap) in tokens.iter().zip(gaps.iter().cycle()) {
                line.push_str(["", " ", "\t ", "\u{a0}"][*gap]);
                line.push_str(token);
                line.push(' ');
            }
            if let Ok(verb) = parse_verb(&line) {
                let text = verb.to_string();
                prop_assert_eq!(parse_verb(&text), Ok(verb), "{:?}", line);
                // Nothing in the line was ignored: word for word it is
                // the canonical text, up to how a number is written.
                let same = |(a, b): (&str, &str)| {
                    a == b || a.parse::<u64>().is_ok_and(|n| Ok(n) == b.parse())
                };
                prop_assert!(
                    line.split_whitespace().count() == text.split(' ').count()
                        && line.split_whitespace().zip(text.split(' ')).all(same),
                    "{:?} parsed as {:?}", line, text
                );
            }
        }
    }

    #[test]
    fn bad_verbs_are_described() {
        assert!(parse_verb("FROBNICATE").unwrap_err().contains("FROBNICATE"));
        assert!(parse_verb("SET").unwrap_err().contains("key"));
        assert!(parse_verb("SET backend").unwrap_err().contains("value"));
        let e = parse_verb("SET backend tpu").unwrap_err();
        assert!(e.contains("'cpu'") && e.contains("'gpu-sim'"), "{e}");
        let e = parse_verb("SET backend auto").unwrap_err();
        assert!(e.starts_with("unknown backend 'auto'; "), "{e}");
        let e = parse_verb("SET format sam").unwrap_err();
        assert!(e.contains("'tsv'") && e.contains("'paf'"), "{e}");
        assert!(parse_verb("SET color blue").unwrap_err().contains("color"));
        assert!(parse_verb("SET explain maybe")
            .unwrap_err()
            .contains("maybe"));
        assert!(parse_verb("BEGIN now").unwrap_err().contains("trailing"));
        assert!(parse_verb("STATS XML").unwrap_err().contains("XML"));
        assert!(parse_verb("STATS JSON extra")
            .unwrap_err()
            .contains("trailing"));
        assert!(parse_verb("STATS STREAM").unwrap_err().contains("interval"));
        assert!(parse_verb("STATS STREAM fast")
            .unwrap_err()
            .contains("fast"));
        assert!(parse_verb("STATS STREAM 0")
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_verb("STATS STREAM 100 extra")
            .unwrap_err()
            .contains("trailing"));
    }
}
