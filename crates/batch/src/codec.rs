//! Lossless JSON text encoding of closed schemes for the on-disk cache.
//!
//! The cache stores the *result* of checking a definition group — each
//! member's closed scheme and SAT class — and replays it on a hit. A
//! replayed report must render byte-identically to a fresh one, so the
//! codec round-trips every structural detail: variable numbers, flag
//! numbers (including `NO_FLAG`), field order, and CNF clauses.
//!
//! Both directions work on text. The encoder writes one canonical form
//! (compact, members in a fixed order — what `Json::render` of the
//! same value would print), and the decoder is a [`Reader`] that
//! accepts exactly that form, so a cache line decodes without building
//! a JSON tree first. The decoder is total: any other text — and any
//! nesting past the JSON parser's bound of 512 arrays and objects —
//! becomes an `Err`, which the cache treats as a miss, never a crash.

use std::fmt::Write as _;

use rowpoly_boolfun::{Clause, Cnf, Flag, Lit, SatClass};
use rowpoly_core::SAT_CLASSES;
use rowpoly_lang::Symbol;
use rowpoly_obs::json;
use rowpoly_types::{FieldEntry, Row, RowTail, Scheme, Ty, Var};

/// The deepest nesting of arrays and objects a [`Reader`] accepts, the
/// same bound `rowpoly_obs::json::parse` keeps.
const MAX_DEPTH: usize = 512;

/// Encodes a scheme as canonical JSON text.
pub fn scheme_to_json(s: &Scheme) -> String {
    let mut out = String::from("{\"vars\":[");
    for (i, v) in s.vars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", v.0);
    }
    out.push_str("],\"ty\":");
    write_ty(&s.ty, &mut out);
    out.push_str(",\"flow\":");
    write_cnf(&s.flow, &mut out);
    out.push('}');
    out
}

/// Whether a [`Reader`] that starts `outside` arrays and objects deep
/// reads back `json`, the text [`scheme_to_json`] wrote for a scheme.
/// Text shorter than twice the levels left cannot open more of them,
/// so only longer text is read.
pub(crate) fn reads_back(json: &str, outside: usize) -> bool {
    json.len() < 2 * (MAX_DEPTH - outside) || Reader::nested(json, outside).scheme().is_ok()
}

/// Decodes a scheme from the text [`scheme_to_json`] writes; any other
/// text is an error.
pub fn scheme_from_json(text: &str) -> Result<Scheme, String> {
    let mut r = Reader::new(text);
    let scheme = r.scheme()?;
    r.end()?;
    Ok(scheme)
}

/// Decodes a SAT class from its name.
pub fn sat_class_from_name(name: &str) -> Result<SatClass, String> {
    SAT_CLASSES
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| format!("class: unknown name {name:?}"))
}

fn write_var(v: Var, f: Flag, out: &mut String) {
    let _ = write!(out, "{{\"var\":{},\"flag\":{}}}", v.0, f.0);
}

fn write_ty(ty: &Ty, out: &mut String) {
    match ty {
        Ty::Var(v, f) => write_var(*v, *f, out),
        Ty::Int => out.push_str("\"Int\""),
        Ty::Str => out.push_str("\"Str\""),
        Ty::List(t) => {
            out.push_str("{\"list\":");
            write_ty(t, out);
            out.push('}');
        }
        Ty::Fun(a, b) => {
            out.push_str("{\"fun\":[");
            write_ty(a, out);
            out.push(',');
            write_ty(b, out);
            out.push_str("]}");
        }
        Ty::Record(row) => {
            out.push_str("{\"fields\":[");
            for (i, e) in row.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                json::write_escaped(e.name.as_str(), out);
                let _ = write!(out, ",{},", e.flag.0);
                write_ty(&e.ty, out);
                out.push(']');
            }
            out.push_str("],\"tail\":");
            match row.tail {
                RowTail::Var(v, f) => write_var(v, f, out),
                RowTail::Closed => out.push_str("\"closed\""),
            }
            out.push('}');
        }
    }
}

fn write_cnf(cnf: &Cnf, out: &mut String) {
    // A literal is a signed flag index: +(f+1) positive, -(f+1) negated.
    out.push('[');
    for (i, c) in cnf.clauses().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, l) in c.lits().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let mag = l.flag().0 as i64 + 1;
            let _ = write!(out, "{}", if l.is_neg() { -mag } else { mag });
        }
        out.push(']');
    }
    out.push(']');
}

/// A cursor over canonical JSON text — compact, members in the order
/// the encoders write them — that decodes it without building a tree.
/// Every method fails on text of any other shape.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
        Reader::nested(text, 0)
    }

    /// A reader over text that sits `depth` arrays and objects deep in
    /// its document, so the nesting bound counts the levels around it.
    pub(crate) fn nested(text: &'a str, depth: usize) -> Reader<'a> {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
            depth,
        }
    }

    /// The byte offset read so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `lit` exactly. A literal that opens or closes arrays
    /// and objects moves the depth with them.
    pub(crate) fn lit(&mut self, lit: &str) -> Result<(), String> {
        if !self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            return Err(format!("expected {lit:?} at byte {}", self.pos));
        }
        self.pos += lit.len();
        for b in lit.bytes() {
            match b {
                b'[' | b'{' => {
                    self.depth += 1;
                    if self.depth > MAX_DEPTH {
                        return Err(format!("nesting deeper than {MAX_DEPTH}"));
                    }
                }
                b']' | b'}' => self.depth = self.depth.saturating_sub(1),
                _ => {}
            }
        }
        Ok(())
    }

    /// Consumes `lit` if it comes next.
    fn eat(&mut self, lit: &str) -> bool {
        let next = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if next {
            self.pos += lit.len();
        }
        next
    }

    /// Fails unless the whole text was read.
    pub(crate) fn end(&self) -> Result<(), String> {
        match self.pos == self.bytes.len() {
            true => Ok(()),
            false => Err(format!("trailing input at byte {}", self.pos)),
        }
    }

    /// Reads `[item,item,…]`.
    pub(crate) fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.lit("[")?;
        let mut out = Vec::new();
        if self.peek() != Some(b']') {
            loop {
                out.push(item(self)?);
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.lit("]")?;
        Ok(out)
    }

    /// Reads an integer.
    fn int(&mut self) -> Result<i64, String> {
        let start = self.pos;
        self.eat("-");
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse()
            .map_err(|_| format!("expected an integer at byte {start}"))
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, String> {
        u32::try_from(self.int()?).map_err(|_| format!("{what}: out of range"))
    }

    /// Reads a string literal, undoing the escapes
    /// [`json::write_escaped`] writes.
    pub(crate) fn string(&mut self) -> Result<String, String> {
        self.lit("\"")?;
        let mut out = String::new();
        loop {
            // All three stops are ASCII, so a run ends on a character
            // boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            let text = &self.bytes[self.pos..self.pos + run];
            out.push_str(std::str::from_utf8(text).expect("a run of a &str"));
            self.pos += run;
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let escape = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .filter(|&c| c < 0x20)
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).expect("a control character"));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".to_string()),
                    }
                }
                _ => return Err("control character in string".to_string()),
            }
        }
    }

    /// Reads a scheme as [`scheme_to_json`] writes it.
    pub(crate) fn scheme(&mut self) -> Result<Scheme, String> {
        self.lit("{\"vars\":")?;
        let vars = self.list(|r| Ok(Var(r.u32("var")?)))?;
        self.lit(",\"ty\":")?;
        let ty = self.ty()?;
        self.lit(",\"flow\":")?;
        let mut flow = self.cnf()?;
        self.lit("}")?;
        // Cached schemes are written normalized (closing a scheme
        // normalizes its flow), so this is a no-op re-sort that restores
        // the `normalized` invariant on the decoded value.
        flow.normalize();
        let mut scheme = Scheme::new(vars, ty);
        scheme.flow = flow;
        Ok(scheme)
    }

    /// Reads `"var":N,"flag":N}` after its opening brace.
    fn var_flag(&mut self) -> Result<(Var, Flag), String> {
        let v = Var(self.u32("var")?);
        self.lit(",\"flag\":")?;
        let f = Flag(self.u32("flag")?);
        self.lit("}")?;
        Ok((v, f))
    }

    fn ty(&mut self) -> Result<Ty, String> {
        if self.eat("\"Int\"") {
            return Ok(Ty::Int);
        }
        if self.eat("\"Str\"") {
            return Ok(Ty::Str);
        }
        self.lit("{")?;
        if self.eat("\"var\":") {
            let (v, f) = self.var_flag()?;
            return Ok(Ty::Var(v, f));
        }
        if self.eat("\"list\":") {
            let t = self.ty()?;
            self.lit("}")?;
            return Ok(Ty::List(Box::new(t)));
        }
        if self.eat("\"fun\":") {
            self.lit("[")?;
            let a = self.ty()?;
            self.lit(",")?;
            let b = self.ty()?;
            self.lit("]}")?;
            return Ok(Ty::Fun(Box::new(a), Box::new(b)));
        }
        self.lit("\"fields\":")?;
        let fields = self.list(|r| {
            r.lit("[")?;
            let name = Symbol::intern(&r.string()?);
            r.lit(",")?;
            let flag = Flag(r.u32("field flag")?);
            r.lit(",")?;
            let ty = r.ty()?;
            r.lit("]")?;
            Ok(FieldEntry { name, flag, ty })
        })?;
        self.lit(",\"tail\":")?;
        let tail = if self.eat("\"closed\"") {
            RowTail::Closed
        } else {
            self.lit("{\"var\":")?;
            let (v, f) = self.var_flag()?;
            RowTail::Var(v, f)
        };
        self.lit("}")?;
        Ok(Ty::Record(Row { fields, tail }))
    }

    fn cnf(&mut self) -> Result<Cnf, String> {
        let mut cnf = Cnf::top();
        let clauses = self.list(|r| {
            r.list(|r| {
                let n = r.int()?;
                if n == 0 {
                    return Err("cnf: zero literal".to_string());
                }
                let flag =
                    Flag(u32::try_from(n.unsigned_abs() - 1).map_err(|_| "cnf: flag range")?);
                Ok(if n < 0 {
                    Lit::neg(flag)
                } else {
                    Lit::pos(flag)
                })
            })
        })?;
        for lits in clauses {
            if let Some(c) = Clause::new(lits) {
                cnf.add_clause(c); // `None` is a tautology: dropped, as normalisation would
            }
        }
        Ok(cnf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_core::Session;
    use rowpoly_obs::json::Json;

    #[test]
    fn roundtrips_inferred_schemes() {
        let src = "def mk r = @{foo = 1} r\ndef sel r = #foo (mk r)\ndef f x = x + 1\n\
                   def l = [\\x . {a = x, b = \"s\"}]\ndef w s = when a in s then #a s else 0";
        let report = Session::default().infer_source(src).expect("checks");
        for d in &report.defs {
            let mut original = d.scheme.clone();
            original.flow.normalize();
            let text = scheme_to_json(&original);
            let parsed = json::parse(&text).expect("the canonical form is JSON");
            assert_eq!(parsed.render(), text, "not compact canonical JSON");
            let back = scheme_from_json(&text).expect("decodes");
            assert_eq!(back, original, "scheme for {} changed", d.name);
            assert_eq!(
                rowpoly_types::render_scheme(&back, true),
                rowpoly_types::render_scheme(&original, true)
            );
        }
    }

    #[test]
    fn roundtrips_sat_class_names() {
        for c in SAT_CLASSES {
            assert_eq!(sat_class_from_name(c.name()), Ok(c));
        }
        assert!(sat_class_from_name("cubic").is_err());
    }

    #[test]
    fn strings_undo_the_writer_escapes() {
        for s in [
            "plain",
            "",
            "quote \" and \\ back",
            "line\nbreak\r\ttab \u{1}",
            "ünï",
        ] {
            let text = Json::Str(s.to_string()).render();
            let mut r = Reader::new(&text);
            assert_eq!(r.string().as_deref(), Ok(s));
            assert!(r.end().is_ok());
        }
    }

    #[test]
    fn reads_back_only_skips_text_too_short_to_nest_past_the_bound() {
        let mut ty = Ty::Int;
        for levels in 0..600 {
            let text = scheme_to_json(&Scheme::new(vec![], ty.clone()));
            for outside in [0, 4, 500, 511] {
                let reads = Reader::nested(&text, outside).scheme().is_ok();
                assert_eq!(
                    reads_back(&text, outside),
                    reads,
                    "{levels} levels, {outside} outside"
                );
            }
            ty = Ty::List(Box::new(ty));
        }
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        let deep = format!(
            "{{\"vars\":[],\"ty\":{}\"Int\"{},\"flow\":[]}}",
            "{\"list\":".repeat(600),
            "}".repeat(600)
        );
        for bad in [
            "",
            "{}",
            "{\"vars\":[],\"ty\":\"Nope\",\"flow\":[]}",
            "{\"vars\":[-1],\"ty\":\"Int\",\"flow\":[]}",
            "{\"vars\":[],\"ty\":\"Int\",\"flow\":[[0]]}",
            "{\"vars\":[],\"ty\":{\"fields\":[[1,2]],\"tail\":\"closed\"},\"flow\":[]}",
            "{\"vars\":[],\"ty\":{\"fields\":[[\"a\",2,\"Int\"]],\"tail\":\"open\"},\"flow\":[]}",
            "{\"vars\": [],\"ty\":\"Int\",\"flow\":[]}",
            "{\"vars\":[],\"ty\":\"Int\",\"flow\":[]} ",
            "{\"vars\":[1,],\"ty\":\"Int\",\"flow\":[]}",
            "{\"vars\":[],\"ty\":\"Int\",\"flow\":[[1]",
            "{\"vars\":[99999999999],\"ty\":\"Int\",\"flow\":[]}",
            deep.as_str(),
        ] {
            assert!(scheme_from_json(bad).is_err(), "accepted {bad}");
        }
    }
}
