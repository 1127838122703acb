//! Seeded randomness and meaning-preserving surface rewrites of
//! `.wspec` text.
//!
//! A rewrite changes only what `wormspec` canonicalisation throws away —
//! comments, whitespace and line breaks, the order of `key = value`
//! items and of whole sections, and spelled-out channel defaults — so
//! the rewritten spec has the same content hash and must hit the same
//! cache entry. Declarations whose order gives them their identity
//! (`node`, `channel`, `path`, `message`, fault events) keep their
//! relative order.

/// A small deterministic generator (SplitMix64): the same seed and
/// stream always give the same sequence, on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams are
    /// independent for practical purposes.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `1 / n`.
    pub fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Declarations whose position is part of their meaning.
const ORDERED: &[&str] = &[
    "node", "channel", "path", "message", "pause", "down", "up", "outage", "stall", "drop",
    "corrupt", "delay", "random",
];

struct Section {
    name: String,
    items: Vec<String>,
}

/// Cut a comment off a line, respecting `#` inside string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Split a spec written one item per line (the form the generators and
/// the committed corpus use) into its sections.
fn sections(source: &str) -> Result<Vec<Section>, String> {
    let mut out: Vec<Section> = Vec::new();
    let mut open = false;
    let mut header = false;
    for raw in source.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if !header {
            if line != "wormspec/1" {
                return Err(format!("expected the version header, found `{line}`"));
            }
            header = true;
        } else if line == "}" && open {
            open = false;
        } else if let Some(name) = line.strip_suffix('{').filter(|_| !open) {
            out.push(Section {
                name: name.trim().to_string(),
                items: Vec::new(),
            });
            open = true;
        } else if open && !line.contains('{') && !line.contains('}') {
            out.last_mut()
                .expect("open section")
                .items
                .push(line.to_string());
        } else {
            return Err(format!("unsupported spec layout at `{line}`"));
        }
    }
    if open || !header {
        return Err("truncated spec".into());
    }
    Ok(out)
}

fn is_ordered(item: &str) -> bool {
    let word = item.split_whitespace().next().unwrap_or("");
    ORDERED.contains(&word) || word.starts_with("random(")
}

/// `channel "a" -> "b" [lane N] [cap Q flits] [label "x"]` with the
/// omitted `lane 0` / `cap 1 flits` defaults written out.
fn spell_channel_defaults(item: &str) -> String {
    // The end of the second string literal (the destination name).
    let mut quotes = 0;
    let mut escaped = false;
    let mut end = None;
    for (i, c) in item.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => {
                quotes += 1;
                if quotes == 4 {
                    end = Some(i + 1);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(end) = end else {
        return item.to_string();
    };
    let (head, mut rest) = item.split_at(end);
    let mut take = |keyword: &str, tokens: usize, default: &str| -> String {
        let trimmed = rest.trim_start();
        if trimmed.starts_with(keyword) {
            let mut taken = 0;
            let mut cut = trimmed.len();
            let mut in_token = false;
            for (i, c) in trimmed.char_indices() {
                if c.is_whitespace() {
                    if in_token {
                        taken += 1;
                        in_token = false;
                        if taken == tokens {
                            cut = i;
                            break;
                        }
                    }
                } else {
                    in_token = true;
                }
            }
            let (part, tail) = trimmed.split_at(cut);
            rest = tail;
            format!(" {part}")
        } else {
            default.to_string()
        }
    };
    let lane = take("lane ", 2, " lane 0");
    let cap = take("cap ", 3, " cap 1 flits");
    format!("{head}{lane}{cap}{rest}")
}

/// A seeded surface rewrite of `source` (see the module docs). Every
/// choice comes from `rng`, so a fixed seed reproduces the same text.
pub fn rewrite(source: &str, rng: &mut Rng) -> Result<String, String> {
    let mut secs = sections(source)?;
    rng.shuffle(&mut secs);
    let indents = ["", " ", "  ", "    ", "\t", "\t  "];
    let mut out = format!("# resubmission {:016x}\n", rng.next_u64());
    out.push_str(if rng.one_in(2) {
        "wormspec/1\n"
    } else {
        "\nwormspec/1   # version header\n"
    });
    for sec in secs {
        let (mut keys, decls): (Vec<String>, Vec<String>) =
            sec.items.into_iter().partition(|item| !is_ordered(item));
        rng.shuffle(&mut keys);
        // Interleave the shuffled keys into the ordered declarations.
        let mut items = Vec::with_capacity(keys.len() + decls.len());
        let (mut k, mut d) = (keys.into_iter().peekable(), decls.into_iter().peekable());
        while k.peek().is_some() || d.peek().is_some() {
            let from_keys = match (k.peek(), d.peek()) {
                (Some(_), None) => true,
                (None, _) => false,
                (Some(_), Some(_)) => rng.one_in(2),
            };
            let item = if from_keys { k.next() } else { d.next() }.expect("peeked");
            let item = if item.starts_with("channel ") && rng.one_in(2) {
                spell_channel_defaults(&item)
            } else {
                item
            };
            items.push(item);
        }
        out.push_str(&sec.name);
        out.push_str(if rng.one_in(3) { "\n{\n" } else { " {\n" });
        let mut i = 0;
        while i < items.len() {
            out.push_str(rng.pick::<&str>(&indents));
            out.push_str(&items[i]);
            i += 1;
            // Several items may share a line: whitespace only separates
            // tokens.
            while i < items.len() && rng.one_in(4) {
                out.push_str(if rng.one_in(2) { "  " } else { "\t" });
                out.push_str(&items[i]);
                i += 1;
            }
            if rng.one_in(6) {
                out.push_str("   # rewritten");
            } else if rng.one_in(5) {
                out.push_str("  ");
            }
            out.push('\n');
            if rng.one_in(8) {
                out.push('\n');
            }
        }
        out.push_str("}\n");
        if rng.one_in(3) {
            out.push_str("# end of section\n");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_defaults_are_spelled_out_in_grammar_order() {
        assert_eq!(
            spell_channel_defaults(r#"channel "a" -> "b""#),
            r#"channel "a" -> "b" lane 0 cap 1 flits"#
        );
        assert_eq!(
            spell_channel_defaults(r#"channel "a" -> "b" lane 1 label "cs""#),
            r#"channel "a" -> "b" lane 1 cap 1 flits label "cs""#
        );
        assert_eq!(
            spell_channel_defaults(r#"channel "x#" -> "y" cap 2 flits"#),
            r#"channel "x#" -> "y" lane 0 cap 2 flits"#
        );
    }

    #[test]
    fn comments_inside_strings_survive() {
        assert_eq!(strip_comment(r#"node "a#b" # tail"#), r#"node "a#b" "#);
    }
}
