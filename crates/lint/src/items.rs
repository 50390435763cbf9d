//! A zero-dependency recursive-descent **item parser** on top of the
//! lexer.
//!
//! This is the second analysis layer (DESIGN.md §15): where the lexer
//! gives rules a flat token stream, this module recovers the *item
//! structure* of each file — modules, `fn` signatures with named/typed
//! parameters, `struct`/`enum` definitions with field spans, `impl` and
//! `trait` blocks with their self types, `const`s with their initializer
//! spans — plus the per-body facts the cross-file rules consume: call
//! sites with unit-classified arguments, `let` bindings, field
//! assignments and struct-literal field initializers.
//!
//! It is an *approximate* parser by design. It never fails: unknown
//! constructs are skipped one token at a time, and every recognized item
//! records its exact byte span so diagnostics stay caret-accurate. The
//! approximations each consumer makes are documented on the rule that
//! makes them; this module's contract is only that what it *does* report
//! is positionally exact.

use crate::lexer::{Tok, TokKind};
use crate::units::{classify_expr, UnitClass};

/// What kind of item a span is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;` (also `extern "C" { … }` blocks).
    Module,
    /// `fn name(…) -> Ty { … }` (free, inherent, or trait).
    Fn,
    /// `struct` / `union` definition.
    Struct,
    /// `enum` definition; variants land in [`Item::fields`].
    Enum,
    /// `trait` definition; members are parsed as nested items.
    Trait,
    /// `impl` block; members are parsed as nested items.
    Impl,
    /// `const NAME: Ty = …;`
    Const,
    /// `static NAME: Ty = …;`
    Static,
    /// `type Name = …;`
    TypeAlias,
    /// `use …;`
    Use,
    /// `macro_rules! name { … }`
    MacroDef,
    /// `extern crate …;`
    ExternCrate,
}

/// A named, typed slot: a `fn` parameter, a `struct` field, or an `enum`
/// variant (variants have an empty `ty`).
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Slot name (`"self"` for receivers, `""` for tuple/pattern slots).
    pub name: String,
    /// Type text, significant tokens joined by spaces (`"Vec < u32 >"`).
    pub ty: String,
    /// Byte offset of the name (or of the slot when unnamed).
    pub lo: usize,
}

/// One argument at a call site.
#[derive(Clone, Debug, PartialEq)]
pub struct CallArg {
    /// Unit class of the argument expression.
    pub class: UnitClass,
    /// Byte span of the argument tokens.
    pub lo: usize,
    /// Byte length of the argument tokens.
    pub len: usize,
    /// The argument's sole identifier when it is a bare name, else `""`.
    pub ident: String,
}

/// A call site inside a body: `callee(args…)` or `recv.callee(args…)`.
#[derive(Clone, Debug, PartialEq)]
pub struct CallSite {
    /// The called name (method or function; paths keep only the last
    /// segment).
    pub callee: String,
    /// Byte offset of the callee identifier.
    pub lo: usize,
    /// Parsed arguments, in order.
    pub args: Vec<CallArg>,
}

/// A simple `let [mut] name [: Ty] = init;` binding.
#[derive(Clone, Debug, PartialEq)]
pub struct LetBind {
    /// Bound name.
    pub name: String,
    /// Unit class of the initializer (`Neutral` when the binding is
    /// `Ps`-typed — the newtype already states the unit).
    pub class: UnitClass,
    /// Byte offset of the bound name.
    pub lo: usize,
}

/// A field assignment (`x.field = rhs`, compound ops included) or a
/// struct-literal field initializer (`Foo { field: rhs }`).
#[derive(Clone, Debug, PartialEq)]
pub struct FieldAssign {
    /// The assigned field's name.
    pub field: String,
    /// Unit class of the right-hand side.
    pub class: UnitClass,
    /// Byte offset of the field name.
    pub lo: usize,
    /// Byte length of the field name.
    pub len: usize,
}

/// One parsed item.
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Its name (`impl` blocks use the self type; `""` when anonymous).
    pub name: String,
    /// Byte span start (includes leading attributes).
    pub lo: usize,
    /// Byte span end (exclusive).
    pub hi: usize,
    /// True when the item sits inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// Enclosing `impl`/`trait` self type, `""` at module level.
    pub self_ty: String,
    /// `fn` return type / `const`/`static`/field type text, else `""`.
    pub ty: String,
    /// Nesting depth: `0` for top-level items, `+1` per enclosing
    /// `mod`/`trait`/`impl`.
    pub depth: u32,
    /// `fn` parameters.
    pub params: Vec<Param>,
    /// `struct` fields or `enum` variants.
    pub fields: Vec<Param>,
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
    /// `let` bindings inside the body.
    pub lets: Vec<LetBind>,
    /// Field assignments / struct-literal initializers inside the body.
    pub assigns: Vec<FieldAssign>,
}

/// A `Upper::Upper` path reference anywhere in the file (enum-variant
/// constructions, match patterns, `use` leaves — deliberately inclusive).
#[derive(Clone, Debug, PartialEq)]
pub struct PathRef {
    /// Segment before `::`.
    pub head: String,
    /// Segment after `::`.
    pub tail: String,
    /// Byte offset of the tail segment.
    pub lo: usize,
    /// True when inside a test region.
    pub in_test: bool,
}

/// A `.field` access anywhere in the file (method calls excluded).
#[derive(Clone, Debug, PartialEq)]
pub struct FieldAccess {
    /// Accessed field name.
    pub name: String,
    /// Byte offset of the field name.
    pub lo: usize,
    /// True when the access is the target of an assignment.
    pub write: bool,
    /// True when inside a test region.
    pub in_test: bool,
}

/// A short, whitespace-free string literal (registry tags, CLI phrases).
#[derive(Clone, Debug, PartialEq)]
pub struct StrRef {
    /// Literal contents, without quotes.
    pub text: String,
    /// Byte offset of the literal token.
    pub lo: usize,
}

/// Everything the cross-file rules need from one file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FileFacts {
    /// All items, post-order for containers: a `mod`/`impl`'s children
    /// precede it (the parent is pushed once its span closes).
    pub items: Vec<Item>,
    /// All `Upper::Upper` path references.
    pub path_refs: Vec<PathRef>,
    /// All `.field` accesses.
    pub field_accesses: Vec<FieldAccess>,
    /// Short string literals.
    pub strings: Vec<StrRef>,
    /// `Some("tag") =>` match arms (CLI subcommand dispatch).
    pub subcommand_arms: Vec<StrRef>,
}

impl FileFacts {
    /// Items of `kind`.
    pub fn of_kind(&self, kind: ItemKind) -> impl Iterator<Item = &Item> {
        self.items.iter().filter(move |i| i.kind == kind)
    }

    /// The first item of `kind` named `name`.
    pub fn named(&self, kind: ItemKind, name: &str) -> Option<&Item> {
        self.items.iter().find(|i| i.kind == kind && i.name == name)
    }
}

/// Keywords that can precede `(`/`{` without being a call or a struct
/// literal.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

fn is_keyword(t: &str) -> bool {
    KEYWORDS.contains(&t)
}

fn upper_initial(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Parse a lexed file into [`FileFacts`].
pub fn parse(src: &str, toks: &[Tok], test_regions: &[(usize, usize)]) -> FileFacts {
    let mut p = Parser::new(src, toks, test_regions);
    let mut items = Vec::new();
    p.items(usize::MAX, 0, "", &mut items);
    let mut facts = FileFacts {
        items,
        ..FileFacts::default()
    };
    p.flat_passes(&mut facts);
    facts
}

struct Parser<'a> {
    text: Vec<&'a str>,
    kind: Vec<TokKind>,
    lo: Vec<usize>,
    hi: Vec<usize>,
    test_regions: &'a [(usize, usize)],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, toks: &'a [Tok], test_regions: &'a [(usize, usize)]) -> Parser<'a> {
        let sig: Vec<&Tok> = toks.iter().filter(|t| t.significant()).collect();
        Parser {
            text: sig.iter().map(|t| t.text(src)).collect(),
            kind: sig.iter().map(|t| t.kind).collect(),
            lo: sig.iter().map(|t| t.lo).collect(),
            hi: sig.iter().map(|t| t.hi).collect(),
            test_regions,
            pos: 0,
        }
    }

    fn len(&self) -> usize {
        self.text.len()
    }

    /// Text of token `i`, `""` past the end.
    fn t(&self, i: usize) -> &'a str {
        self.text.get(i).copied().unwrap_or("")
    }

    fn k(&self, i: usize) -> TokKind {
        self.kind.get(i).copied().unwrap_or(TokKind::Whitespace)
    }

    fn in_test(&self, i: usize) -> bool {
        crate::lexer::in_regions(self.test_regions, self.lo[i])
    }

    /// Index just past the delimiter group opening at `i` (`text[i]` must
    /// be the opener). Counts only `open`/`close`.
    fn skip_group(&self, i: usize, open: &str, close: &str) -> usize {
        let mut depth = 0i64;
        let mut j = i;
        while j < self.len() {
            let t = self.t(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.len()
    }

    /// Index just past a `<…>` generics group opening at `i`. A `>`
    /// preceded by `-` is an arrow (`fn(…) -> T` inside generic args) and
    /// does not close the group.
    fn skip_generics(&self, i: usize) -> usize {
        let mut depth = 0i64;
        let mut j = i;
        while j < self.len() {
            match self.t(j) {
                "<" => depth += 1,
                ">" if j == 0 || self.t(j - 1) != "-" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.len()
    }

    /// Skip leading `#[…]` / `#![…]` attributes from `self.pos`.
    fn skip_attrs(&mut self) {
        while self.t(self.pos) == "#" {
            let mut j = self.pos + 1;
            if self.t(j) == "!" {
                j += 1;
            }
            if self.t(j) != "[" {
                break;
            }
            self.pos = self.skip_group(j, "[", "]");
        }
    }

    /// Advance to the matching top-level `;` from `self.pos`, tracking all
    /// three delimiter pairs; stops (without consuming) at an unbalanced
    /// `}`. Returns the index of the last consumed token.
    fn consume_until_semi(&mut self) -> usize {
        let mut depth = 0i64;
        while self.pos < self.len() {
            match self.t(self.pos) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    if depth == 0 {
                        return self.pos.saturating_sub(1);
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => {
                    self.pos += 1;
                    return self.pos - 1;
                }
                _ => {}
            }
            self.pos += 1;
        }
        self.len().saturating_sub(1)
    }

    /// Parse items until an unmatched `}` or `end`/EOF, appending to
    /// `out`. `self.pos` is left on the `}` (not consumed).
    fn items(&mut self, end: usize, depth: u32, self_ty: &str, out: &mut Vec<Item>) {
        let end = end.min(self.len());
        while self.pos < end && self.t(self.pos) != "}" {
            self.item(depth, self_ty, out);
        }
    }

    /// Parse one item (or recover by one token) at `self.pos`.
    fn item(&mut self, depth: u32, self_ty: &str, out: &mut Vec<Item>) {
        let start = self.pos;
        self.skip_attrs();
        // Visibility.
        if self.t(self.pos) == "pub" {
            self.pos += 1;
            if self.t(self.pos) == "(" {
                self.pos = self.skip_group(self.pos, "(", ")");
            }
        }
        // Modifiers: `unsafe fn`, `async fn`, `default fn`, `const fn`,
        // `extern "C" fn`.
        loop {
            match self.t(self.pos) {
                "unsafe" | "async" | "default" => self.pos += 1,
                "const" if self.t(self.pos + 1) == "fn" => self.pos += 1,
                "extern" if self.k(self.pos + 1) == TokKind::StrLit => self.pos += 2,
                _ => break,
            }
        }
        if self.pos >= self.len() || self.t(self.pos) == "}" {
            return;
        }
        let item_lo = self.lo[start.min(self.len() - 1)];
        let in_test = self.in_test(start.min(self.len() - 1));
        let mut item = Item {
            kind: ItemKind::Use,
            name: String::new(),
            lo: item_lo,
            hi: item_lo,
            in_test,
            self_ty: self_ty.to_string(),
            ty: String::new(),
            depth,
            params: Vec::new(),
            fields: Vec::new(),
            calls: Vec::new(),
            lets: Vec::new(),
            assigns: Vec::new(),
        };
        match self.t(self.pos) {
            "mod" => {
                item.kind = ItemKind::Module;
                item.name = self.t(self.pos + 1).to_string();
                self.pos += 2;
                if self.t(self.pos) == "{" {
                    self.pos += 1;
                    self.items(usize::MAX, depth + 1, "", out);
                    if self.t(self.pos) == "}" {
                        self.pos += 1;
                    }
                } else if self.t(self.pos) == ";" {
                    self.pos += 1;
                }
            }
            "fn" => {
                item.kind = ItemKind::Fn;
                self.parse_fn(&mut item);
            }
            "struct" | "union" => {
                item.kind = ItemKind::Struct;
                self.parse_struct(&mut item);
            }
            "enum" => {
                item.kind = ItemKind::Enum;
                self.parse_enum(&mut item);
            }
            "trait" => {
                item.kind = ItemKind::Trait;
                item.name = self.t(self.pos + 1).to_string();
                self.pos += 2;
                if self.t(self.pos) == "<" {
                    self.pos = self.skip_generics(self.pos);
                }
                while self.pos < self.len() && self.t(self.pos) != "{" && self.t(self.pos) != ";" {
                    self.pos += 1;
                }
                if self.t(self.pos) == "{" {
                    self.pos += 1;
                    let name = item.name.clone();
                    self.body_items(depth, &name, out);
                } else if self.t(self.pos) == ";" {
                    self.pos += 1;
                }
            }
            "impl" => {
                item.kind = ItemKind::Impl;
                self.pos += 1;
                if self.t(self.pos) == "<" {
                    self.pos = self.skip_generics(self.pos);
                }
                item.name = self.impl_self_ty();
                item.self_ty = item.name.clone();
                if self.t(self.pos) == "{" {
                    self.pos += 1;
                    let name = item.name.clone();
                    self.body_items(depth, &name, out);
                } else if self.t(self.pos) == ";" {
                    self.pos += 1;
                }
            }
            "const" | "static" => {
                item.kind = if self.t(self.pos) == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                self.pos += 1;
                if self.t(self.pos) == "mut" {
                    self.pos += 1;
                }
                item.name = self.t(self.pos).to_string();
                self.pos += 1;
                if self.t(self.pos) == ":" {
                    self.pos += 1;
                    item.ty = self.type_until(&["=", ";"]);
                }
                self.consume_until_semi();
            }
            "type" => {
                item.kind = ItemKind::TypeAlias;
                item.name = self.t(self.pos + 1).to_string();
                self.pos += 2;
                self.consume_until_semi();
            }
            "use" => {
                item.kind = ItemKind::Use;
                self.pos += 1;
                self.consume_until_semi();
            }
            "macro_rules" if self.t(self.pos + 1) == "!" => {
                item.kind = ItemKind::MacroDef;
                item.name = self.t(self.pos + 2).to_string();
                self.pos += 3;
                match self.t(self.pos) {
                    "{" => self.pos = self.skip_group(self.pos, "{", "}"),
                    "(" => {
                        self.pos = self.skip_group(self.pos, "(", ")");
                        self.consume_until_semi();
                    }
                    _ => {}
                }
            }
            "extern" if self.t(self.pos + 1) == "crate" => {
                item.kind = ItemKind::ExternCrate;
                item.name = self.t(self.pos + 2).to_string();
                self.pos += 3;
                self.consume_until_semi();
            }
            "extern" => {
                // `extern "C" { … }` foreign block (the `extern "C" fn`
                // modifier form was consumed above).
                item.kind = ItemKind::Module;
                item.name = "extern".to_string();
                self.pos += 1;
                while self.pos < self.len() && self.t(self.pos) != "{" && self.t(self.pos) != ";" {
                    self.pos += 1;
                }
                if self.t(self.pos) == "{" {
                    self.pos = self.skip_group(self.pos, "{", "}");
                } else if self.t(self.pos) == ";" {
                    self.pos += 1;
                }
            }
            _ => {
                // Recovery: not an item head we know. Advance one token so
                // progress is guaranteed; emit nothing.
                self.pos += 1;
                return;
            }
        }
        let last = self.pos.min(self.len()).saturating_sub(1);
        item.hi = self.hi[last].max(item.lo);
        out.push(item);
    }

    /// Parse the members of a `trait`/`impl` block; consumes the closing
    /// `}`. The parent item is pushed by the caller *after* its children
    /// only in source order terms — children carry `depth + 1`.
    fn body_items(&mut self, depth: u32, self_ty: &str, out: &mut Vec<Item>) {
        self.items(usize::MAX, depth + 1, self_ty, out);
        if self.t(self.pos) == "}" {
            self.pos += 1;
        }
    }

    /// Self-type name of an `impl` header: the last generic-depth-0
    /// identifier before the body, restricted to the segment after a
    /// top-level `for` (trait impls) and cut at `where`.
    fn impl_self_ty(&mut self) -> String {
        let mut depth = 0i64;
        let mut last_ident: Option<&str> = None;
        while self.pos < self.len() {
            let t = self.t(self.pos);
            match t {
                "{" | ";" if depth == 0 => break,
                "<" => depth += 1,
                ">" if self.t(self.pos.wrapping_sub(1)) != "-" => depth -= 1,
                "(" => {
                    self.pos = self.skip_group(self.pos, "(", ")");
                    continue;
                }
                "where" if depth == 0 => {
                    // Self type precedes the where clause; skip the rest.
                    while self.pos < self.len()
                        && self.t(self.pos) != "{"
                        && self.t(self.pos) != ";"
                    {
                        self.pos += 1;
                    }
                    break;
                }
                "for" if depth == 0 && self.t(self.pos + 1) != "<" => {
                    // Trait impl: the self type is what follows `for`.
                    last_ident = None;
                }
                _ if depth == 0 && self.k(self.pos) == TokKind::Ident && !is_keyword(t) => {
                    last_ident = Some(t);
                }
                _ => {}
            }
            self.pos += 1;
        }
        last_ident.unwrap_or("").to_string()
    }

    /// Collect type text until one of `stops` at delimiter depth 0; the
    /// stop token is not consumed.
    fn type_until(&mut self, stops: &[&str]) -> String {
        let mut depth = 0i64;
        let mut parts: Vec<&str> = Vec::new();
        while self.pos < self.len() {
            let t = self.t(self.pos);
            if depth == 0 && (stops.contains(&t) || t == "}") {
                break;
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => depth += 1,
                ">" if self.t(self.pos.wrapping_sub(1)) != "-" => depth -= 1,
                _ => {}
            }
            parts.push(t);
            self.pos += 1;
        }
        parts.join(" ")
    }

    /// `fn` after the keyword: name, generics, params, return type, body.
    fn parse_fn(&mut self, item: &mut Item) {
        item.name = self.t(self.pos + 1).to_string();
        self.pos += 2;
        if self.t(self.pos) == "<" {
            self.pos = self.skip_generics(self.pos);
        }
        if self.t(self.pos) == "(" {
            let close = self.skip_group(self.pos, "(", ")");
            self.parse_params(self.pos + 1, close - 1, item);
            self.pos = close;
        }
        if self.t(self.pos) == "-" && self.t(self.pos + 1) == ">" {
            self.pos += 2;
            item.ty = self.type_until(&["where", "{", ";"]);
        }
        if self.t(self.pos) == "where" {
            while self.pos < self.len() && self.t(self.pos) != "{" && self.t(self.pos) != ";" {
                if self.t(self.pos) == "<" {
                    self.pos = self.skip_generics(self.pos);
                } else {
                    self.pos += 1;
                }
            }
        }
        if self.t(self.pos) == "{" {
            let close = self.skip_group(self.pos, "{", "}");
            self.scan_body(self.pos + 1, close - 1, item);
            self.pos = close;
        } else if self.t(self.pos) == ";" {
            self.pos += 1;
        }
    }

    /// Split the parameter range `[i, end)` on depth-0 commas and parse
    /// each slot.
    fn parse_params(&mut self, i: usize, end: usize, item: &mut Item) {
        let mut depth = 0i64;
        let mut seg = i;
        let mut j = i;
        while j <= end {
            let at_end = j == end;
            let t = if at_end { "," } else { self.t(j) };
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => depth += 1,
                ">" if self.t(j.wrapping_sub(1)) != "-" => depth -= 1,
                "," if depth == 0 => {
                    if seg < j {
                        item.params.push(self.param_slot(seg, j));
                    }
                    seg = j + 1;
                }
                _ => {}
            }
            j += 1;
        }
    }

    /// One parameter slot in `[i, end)`.
    fn param_slot(&self, i: usize, end: usize) -> Param {
        let mut j = i;
        // Leading attributes on the slot.
        while self.t(j) == "#" && self.t(j + 1) == "[" {
            j = self.skip_group(j + 1, "[", "]");
        }
        // Receiver forms: `self`, `&self`, `&mut self`, `&'a mut self`,
        // `mut self`, `self: Ty`.
        let mut r = j;
        while r < end && (self.t(r) == "&" || self.t(r) == "mut" || self.k(r) == TokKind::Lifetime)
        {
            r += 1;
        }
        if self.t(r) == "self" {
            return Param {
                name: "self".to_string(),
                ty: String::new(),
                lo: self.lo[r],
            };
        }
        if self.t(j) == "mut" {
            j += 1;
        }
        let lo = self.lo[j.min(self.len() - 1)];
        // Find the top-level `:` separating pattern from type.
        let mut depth = 0i64;
        let mut colon = None;
        for c in j..end {
            match self.t(c) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ">" if self.t(c.wrapping_sub(1)) != "-" => depth -= 1,
                ":" if depth == 0 && self.t(c + 1) != ":" && self.t(c.wrapping_sub(1)) != ":" => {
                    colon = Some(c);
                    break;
                }
                _ => {}
            }
        }
        let name = if self.k(j) == TokKind::Ident && colon.map_or(end == j + 1, |c| c == j + 1) {
            self.t(j).to_string()
        } else {
            String::new()
        };
        let ty = match colon {
            Some(c) => self.text[c + 1..end].join(" "),
            None => String::new(),
        };
        Param { name, ty, lo }
    }

    /// `struct`/`union` after the keyword.
    fn parse_struct(&mut self, item: &mut Item) {
        item.name = self.t(self.pos + 1).to_string();
        self.pos += 2;
        if self.t(self.pos) == "<" {
            self.pos = self.skip_generics(self.pos);
        }
        if self.t(self.pos) == "where" {
            while self.pos < self.len() && !matches!(self.t(self.pos), "{" | "(" | ";") {
                self.pos += 1;
            }
        }
        match self.t(self.pos) {
            "{" => {
                let close = self.skip_group(self.pos, "{", "}");
                self.parse_named_fields(self.pos + 1, close - 1, item);
                self.pos = close;
            }
            "(" => {
                let close = self.skip_group(self.pos, "(", ")");
                // Tuple fields: unnamed, positional types.
                let save = self.pos;
                self.pos = close;
                let mut tmp = Item {
                    params: Vec::new(),
                    ..item.clone()
                };
                self.parse_params(save + 1, close - 1, &mut tmp);
                item.fields = tmp.params;
                self.consume_until_semi();
            }
            ";" => self.pos += 1,
            _ => {}
        }
    }

    /// Named fields in `[i, end)`: `vis name : Ty ,`.
    fn parse_named_fields(&mut self, i: usize, end: usize, item: &mut Item) {
        let mut j = i;
        while j < end {
            while self.t(j) == "#" && self.t(j + 1) == "[" {
                j = self.skip_group(j + 1, "[", "]");
            }
            if self.t(j) == "pub" {
                j += 1;
                if self.t(j) == "(" {
                    j = self.skip_group(j, "(", ")");
                }
            }
            if j >= end {
                break;
            }
            if self.k(j) == TokKind::Ident && self.t(j + 1) == ":" {
                let name = self.t(j).to_string();
                let lo = self.lo[j];
                // Type runs to the next depth-0 comma.
                let mut depth = 0i64;
                let mut c = j + 2;
                let ty_start = c;
                while c < end {
                    match self.t(c) {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ">" if self.t(c.wrapping_sub(1)) != "-" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    c += 1;
                }
                item.fields.push(Param {
                    name,
                    ty: self.text[ty_start..c].join(" "),
                    lo,
                });
                j = c + 1;
            } else {
                j += 1;
            }
        }
    }

    /// `enum` after the keyword: collect variant names and spans.
    fn parse_enum(&mut self, item: &mut Item) {
        item.name = self.t(self.pos + 1).to_string();
        self.pos += 2;
        if self.t(self.pos) == "<" {
            self.pos = self.skip_generics(self.pos);
        }
        if self.t(self.pos) == "where" {
            while self.pos < self.len() && self.t(self.pos) != "{" {
                self.pos += 1;
            }
        }
        if self.t(self.pos) != "{" {
            return;
        }
        let close = self.skip_group(self.pos, "{", "}");
        let mut j = self.pos + 1;
        let end = close - 1;
        while j < end {
            while self.t(j) == "#" && self.t(j + 1) == "[" {
                j = self.skip_group(j + 1, "[", "]");
            }
            if j >= end {
                break;
            }
            if self.k(j) == TokKind::Ident {
                item.fields.push(Param {
                    name: self.t(j).to_string(),
                    ty: String::new(),
                    lo: self.lo[j],
                });
                j += 1;
                // Skip payload and discriminant to the next depth-0 comma.
                let mut depth = 0i64;
                while j < end {
                    match self.t(j) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => {
                            j += 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else {
                j += 1;
            }
        }
        self.pos = close;
    }

    /// Scan a `fn` body `[start, end)` for calls, simple `let` bindings,
    /// field assignments and struct-literal initializers.
    fn scan_body(&mut self, start: usize, end: usize, item: &mut Item) {
        let mut i = start;
        while i < end {
            let t = self.t(i);
            let k = self.k(i);
            // Call site: `ident(` — macros are `ident!(` so they never
            // match; `fn name(` is excluded by the look-behind.
            if k == TokKind::Ident
                && !is_keyword(t)
                && t != "self"
                && self.t(i + 1) == "("
                && self.t(i.wrapping_sub(1)) != "fn"
            {
                let close = self.skip_group(i + 1, "(", ")");
                let args = self.call_args(i + 2, close - 1);
                item.calls.push(CallSite {
                    callee: t.to_string(),
                    lo: self.lo[i],
                    args,
                });
                i += 1;
                continue;
            }
            // Simple let binding: `let [mut] name [: Ty] = init ;`
            if t == "let" {
                let mut j = i + 1;
                if self.t(j) == "mut" {
                    j += 1;
                }
                if self.k(j) == TokKind::Ident
                    && !is_keyword(self.t(j))
                    && (self.t(j + 1) == ":" || self.t(j + 1) == "=")
                    && self.t(j + 2) != "="
                {
                    let name = self.t(j).to_string();
                    let lo = self.lo[j];
                    let mut c = j + 1;
                    let mut ps_typed = false;
                    if self.t(c) == ":" {
                        let save = self.pos;
                        self.pos = c + 1;
                        let ty = self.type_until(&["=", ";"]);
                        c = self.pos;
                        self.pos = save;
                        ps_typed = ty.split(' ').any(|s| s == "Ps");
                    }
                    if self.t(c) == "=" {
                        let init = self.expr_span(c + 1, end, &[";"]);
                        let class = if ps_typed {
                            UnitClass::Neutral
                        } else {
                            classify_expr(self.text[c + 1..init].iter().copied())
                        };
                        item.lets.push(LetBind { name, class, lo });
                    }
                    i = j + 1;
                    continue;
                }
            }
            // Field assignment: `.field =` / `.field +=` (all compound
            // assignment operators).
            if t == "." && self.k(i + 1) == TokKind::Ident && self.t(i.wrapping_sub(1)) != "." {
                if let Some(rhs) = self.assign_rhs_start(i + 2) {
                    let stop = self.expr_span(rhs, end, &[";"]);
                    item.assigns.push(FieldAssign {
                        field: self.t(i + 1).to_string(),
                        class: classify_expr(self.text[rhs..stop].iter().copied()),
                        lo: self.lo[i + 1],
                        len: self.hi[i + 1] - self.lo[i + 1],
                    });
                    i += 2;
                    continue;
                }
            }
            // Struct literal: `Type { field: rhs, … }`.
            if k == TokKind::Ident
                && (upper_initial(t) || t == "Self")
                && self.t(i + 1) == "{"
                && !is_keyword(self.t(i.wrapping_sub(1)))
            {
                let close = self.skip_group(i + 1, "{", "}");
                self.struct_literal_fields(i + 2, close - 1, item);
                i += 2;
                continue;
            }
            i += 1;
        }
    }

    /// If an assignment operator starts at `i`, return the index where its
    /// right-hand side begins. Handles `=`, `+= -= *= /= %= &= |= ^=`,
    /// `<<=`, `>>=`; rejects `==`, `<=`, `>=`, `=>`.
    fn assign_rhs_start(&self, i: usize) -> Option<usize> {
        let a = self.t(i);
        let b = self.t(i + 1);
        let c = self.t(i + 2);
        match a {
            "=" if b != "=" && b != ">" => Some(i + 1),
            "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" if b == "=" && c != "=" => Some(i + 2),
            "<" | ">" if b == a && c == "=" => Some(i + 3),
            _ => None,
        }
    }

    /// End (exclusive) of the expression starting at `i`: the first
    /// depth-0 `stops` token, an unbalanced closer, or `end`.
    fn expr_span(&self, i: usize, end: usize, stops: &[&str]) -> usize {
        let mut depth = 0i64;
        let mut j = i;
        while j < end {
            let t = self.t(j);
            if depth == 0 && stops.contains(&t) {
                return j;
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return j;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Split call arguments `[i, end)` on depth-0 commas.
    fn call_args(&self, i: usize, end: usize) -> Vec<CallArg> {
        let mut args = Vec::new();
        if i >= end {
            return args;
        }
        let mut depth = 0i64;
        let mut seg = i;
        let mut j = i;
        loop {
            let at_end = j == end;
            let t = if at_end { "," } else { self.t(j) };
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    if seg < j {
                        let texts = &self.text[seg..j];
                        args.push(CallArg {
                            class: classify_expr(texts.iter().copied()),
                            lo: self.lo[seg],
                            len: self.hi[j - 1] - self.lo[seg],
                            ident: if j == seg + 1 && self.k(seg) == TokKind::Ident {
                                self.t(seg).to_string()
                            } else {
                                String::new()
                            },
                        });
                    }
                    seg = j + 1;
                }
                _ => {}
            }
            if at_end {
                break;
            }
            j += 1;
        }
        args
    }

    /// Depth-0 `field : rhs` pairs inside a struct literal body.
    fn struct_literal_fields(&self, i: usize, end: usize, item: &mut Item) {
        let mut depth = 0i64;
        let mut j = i;
        while j < end {
            match self.t(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ if depth == 0
                    && self.k(j) == TokKind::Ident
                    && self.t(j + 1) == ":"
                    && self.t(j + 2) != ":"
                    && (j == i || self.t(j - 1) == ",") =>
                {
                    let stop = self.expr_span(j + 2, end, &[","]);
                    item.assigns.push(FieldAssign {
                        field: self.t(j).to_string(),
                        class: classify_expr(self.text[j + 2..stop].iter().copied()),
                        lo: self.lo[j],
                        len: self.hi[j] - self.lo[j],
                    });
                    j = stop;
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
    }

    /// The whole-file passes that don't depend on item structure.
    fn flat_passes(&self, facts: &mut FileFacts) {
        for i in 0..self.len() {
            let t = self.t(i);
            let k = self.k(i);
            // `Upper::Upper` path references.
            if k == TokKind::Ident
                && upper_initial(t)
                && self.t(i + 1) == ":"
                && self.t(i + 2) == ":"
                && self.k(i + 3) == TokKind::Ident
                && upper_initial(self.t(i + 3))
            {
                facts.path_refs.push(PathRef {
                    head: t.to_string(),
                    tail: self.t(i + 3).to_string(),
                    lo: self.lo[i + 3],
                    in_test: self.in_test(i),
                });
            }
            // `.field` accesses (method calls and ranges excluded).
            if t == "."
                && self.k(i + 1) == TokKind::Ident
                && !is_keyword(self.t(i + 1))
                && self.t(i + 2) != "("
                && self.t(i.wrapping_sub(1)) != "."
                && self.t(i + 2) != "!"
            {
                facts.field_accesses.push(FieldAccess {
                    name: self.t(i + 1).to_string(),
                    lo: self.lo[i + 1],
                    write: self.assign_rhs_start(i + 2).is_some(),
                    in_test: self.in_test(i + 1),
                });
            }
            // Short whitespace-free string literals (registry tags).
            if k == TokKind::StrLit {
                let inner = t.trim_start_matches('"').trim_end_matches('"');
                if !inner.is_empty() && inner.len() <= 24 && !inner.contains(char::is_whitespace) {
                    facts.strings.push(StrRef {
                        text: inner.to_string(),
                        lo: self.lo[i],
                    });
                }
            }
            // `Some("tag") =>` subcommand-dispatch arms.
            if t == "Some"
                && self.t(i + 1) == "("
                && self.k(i + 2) == TokKind::StrLit
                && self.t(i + 3) == ")"
                && self.t(i + 4) == "="
                && self.t(i + 5) == ">"
            {
                let lit = self.t(i + 2);
                facts.subcommand_arms.push(StrRef {
                    text: lit.trim_matches('"').to_string(),
                    lo: self.lo[i + 2],
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn facts(src: &str) -> FileFacts {
        let toks = lexer::lex(src);
        let regions = lexer::test_regions(src, &toks);
        parse(src, &toks, &regions)
    }

    #[test]
    fn parses_fn_signature_and_body() {
        let f = facts(
            "pub fn sub_unit_duration(t_ns: u64, freq_mhz: u32) -> Ps {\n\
             \x20   let total_cycles = t_ns * 2;\n\
             \x20   convert(total_cycles, freq_mhz)\n\
             }\n",
        );
        let it = f.named(ItemKind::Fn, "sub_unit_duration").expect("fn");
        assert_eq!(it.ty, "Ps");
        assert_eq!(it.depth, 0);
        let names: Vec<&str> = it.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["t_ns", "freq_mhz"]);
        assert_eq!(it.params[0].ty, "u64");
        assert_eq!(it.lets.len(), 1);
        assert_eq!(it.lets[0].name, "total_cycles");
        assert_eq!(it.lets[0].class, UnitClass::Ns);
        let call = it
            .calls
            .iter()
            .find(|c| c.callee == "convert")
            .expect("call");
        assert_eq!(call.args.len(), 2);
        assert_eq!(call.args[0].class, UnitClass::Cycles);
        assert_eq!(call.args[0].ident, "total_cycles");
    }

    #[test]
    fn parses_struct_enum_const() {
        let f = facts(
            "struct Cfg { mean_gap_ns: u64, pub frames: usize }\n\
             enum Sel { #[default] A, B(u32), C { x: u8 } }\n\
             const ALL: [Sel; 3] = [Sel::A, Sel::B, Sel::C];\n",
        );
        let s = f.named(ItemKind::Struct, "Cfg").expect("struct");
        let fields: Vec<&str> = s.fields.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(fields, ["mean_gap_ns", "frames"]);
        assert_eq!(s.fields[0].ty, "u64");
        let e = f.named(ItemKind::Enum, "Sel").expect("enum");
        let vars: Vec<&str> = e.fields.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(vars, ["A", "B", "C"]);
        let c = f.named(ItemKind::Const, "ALL").expect("const");
        assert_eq!(c.ty, "[ Sel ; 3 ]");
        // The const's span covers its initializer, so the `Sel::X` path
        // refs inside it can be attributed to the const.
        let inside = f
            .path_refs
            .iter()
            .filter(|r| r.lo >= c.lo && r.lo < c.hi)
            .count();
        assert_eq!(inside, 3);
    }

    #[test]
    fn impl_blocks_set_self_ty() {
        let f = facts(
            "impl Cfg { fn frames(&self) -> usize { self.frames } }\n\
             impl Default for Cfg { fn default() -> Cfg { Cfg { frames: 4 } } }\n\
             impl<'a> View<'a> { fn len(&self) -> usize { 0 } }\n",
        );
        let frames = f.named(ItemKind::Fn, "frames").expect("frames");
        assert_eq!(frames.self_ty, "Cfg");
        assert_eq!(frames.params[0].name, "self");
        assert_eq!(frames.depth, 1);
        let default = f.named(ItemKind::Fn, "default").expect("default");
        assert_eq!(default.self_ty, "Cfg");
        assert_eq!(default.assigns.len(), 1);
        assert_eq!(default.assigns[0].field, "frames");
        let len = f.named(ItemKind::Fn, "len").expect("len");
        assert_eq!(len.self_ty, "View");
    }

    #[test]
    fn field_assigns_and_accesses() {
        let f = facts(
            "fn tick(&mut self, gap_cycles: u64) {\n\
             \x20   self.at_ns += gap_cycles;\n\
             \x20   let x = self.depth;\n\
             \x20   if self.at_ns == 3 { }\n\
             }\n",
        );
        let it = f.named(ItemKind::Fn, "tick").expect("fn");
        assert_eq!(it.assigns.len(), 1);
        assert_eq!(it.assigns[0].field, "at_ns");
        assert_eq!(it.assigns[0].class, UnitClass::Cycles);
        let writes: Vec<(&str, bool)> = f
            .field_accesses
            .iter()
            .map(|a| (a.name.as_str(), a.write))
            .collect();
        assert_eq!(
            writes,
            [("at_ns", true), ("depth", false), ("at_ns", false)]
        );
    }

    #[test]
    fn test_regions_mark_items() {
        let f = facts(
            "fn live() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   #[test]\n\
             \x20   fn check() { probe(1); }\n\
             }\n",
        );
        assert!(!f.named(ItemKind::Fn, "live").unwrap().in_test);
        assert!(f.named(ItemKind::Fn, "check").unwrap().in_test);
        assert!(f.named(ItemKind::Module, "tests").unwrap().in_test);
    }

    #[test]
    fn top_level_items_tile_the_file() {
        let src = "use std::fmt;\n\
                   const N: usize = 3;\n\
                   struct S { a: u32 }\n\
                   impl S { fn a(&self) -> u32 { self.a } }\n\
                   fn free(x: u64) -> u64 { x }\n";
        let f = facts(src);
        let toks = lexer::lex(src);
        for t in toks.iter().filter(|t| t.significant()) {
            let cover = f
                .items
                .iter()
                .filter(|i| i.depth == 0 && t.lo >= i.lo && t.lo < i.hi)
                .count();
            assert_eq!(cover, 1, "token `{}` at {}", t.text(src), t.lo);
        }
    }

    #[test]
    fn subcommand_arms_and_strings() {
        let f = facts(
            "fn main() { match arg() { Some(\"run\") => run(), Some(\"report\") => rep(), _ => {} } }\n",
        );
        let arms: Vec<&str> = f.subcommand_arms.iter().map(|a| a.text.as_str()).collect();
        assert_eq!(arms, ["run", "report"]);
        let strs: Vec<&str> = f.strings.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(strs, ["run", "report"]);
    }

    #[test]
    fn generics_with_fn_pointer_arrow() {
        let f = facts("fn apply(map: Vec<fn(u32) -> u64>, n_cycles: u64) -> u64 { n_cycles }\n");
        let it = f.named(ItemKind::Fn, "apply").expect("fn");
        assert_eq!(it.params.len(), 2);
        assert_eq!(it.params[1].name, "n_cycles");
        assert_eq!(it.ty, "u64");
    }
}
