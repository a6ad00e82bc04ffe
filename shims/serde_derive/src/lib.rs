//! Offline stand-in for serde's derive macros.
//!
//! Parses the item token stream by hand (no `syn`), supports the shapes
//! this workspace derives on: non-generic structs (named, tuple, unit)
//! and enums (unit, tuple, and struct variants). `#[serde(...)]`
//! attributes are not supported and are rejected loudly.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of the deriving item.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

fn is_punct(tt: &TokenTree, c: char) -> bool {
    matches!(tt, TokenTree::Punct(p) if p.as_char() == c)
}

/// Skip leading `#[...]` attribute groups, panicking on `#[serde(...)]`.
fn skip_attrs(tokens: &[TokenTree], mut pos: usize) -> usize {
    while pos + 1 < tokens.len() && is_punct(&tokens[pos], '#') {
        if let TokenTree::Group(g) = &tokens[pos + 1] {
            if g.delimiter() == Delimiter::Bracket {
                let body = g.stream().to_string();
                if body.starts_with("serde") {
                    panic!("serde shim: #[serde(...)] attributes are not supported: {body}");
                }
                pos += 2;
                continue;
            }
        }
        break;
    }
    pos
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(tokens: &[TokenTree], mut pos: usize) -> usize {
    if matches!(&tokens[pos], TokenTree::Ident(i) if i.to_string() == "pub") {
        pos += 1;
        if pos < tokens.len() {
            if let TokenTree::Group(g) = &tokens[pos] {
                if g.delimiter() == Delimiter::Parenthesis {
                    pos += 1;
                }
            }
        }
    }
    pos
}

/// Split a token slice at top-level commas, tracking angle-bracket depth
/// so `Foo<A, B>` stays one segment. Groups are opaque single tokens.
fn split_top_level_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur: Vec<TokenTree> = Vec::new();
    let mut angle = 0i32;
    for tt in tokens {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(tt.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Parse the fields of a braced (named-field) body.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut names = Vec::new();
    for segment in split_top_level_commas(&tokens) {
        if segment.is_empty() {
            continue;
        }
        let mut pos = skip_attrs(&segment, 0);
        pos = skip_vis(&segment, pos);
        match &segment[pos] {
            TokenTree::Ident(i) => names.push(i.to_string()),
            other => panic!("serde shim: expected field name, found {other}"),
        }
    }
    names
}

/// Count the fields of a parenthesised (tuple) body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    split_top_level_commas(&tokens)
        .into_iter()
        .filter(|s| !s.is_empty())
        .count()
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = skip_attrs(&tokens, 0);
    pos = skip_vis(&tokens, pos);
    let kind = match &tokens[pos] {
        TokenTree::Ident(i) => i.to_string(),
        other => panic!("serde shim: expected struct/enum, found {other}"),
    };
    pos += 1;
    let name = match &tokens[pos] {
        TokenTree::Ident(i) => i.to_string(),
        other => panic!("serde shim: expected item name, found {other}"),
    };
    pos += 1;
    if pos < tokens.len() && is_punct(&tokens[pos], '<') {
        panic!("serde shim: generic types are not supported (deriving on {name})");
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(tt) if is_punct(tt, ';') => Fields::Unit,
                other => panic!("serde shim: unsupported struct body for {name}: {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde shim: unsupported enum body for {name}: {other:?}"),
            };
            let body_tokens: Vec<TokenTree> = body.into_iter().collect();
            let mut variants = Vec::new();
            let mut vpos = 0usize;
            while vpos < body_tokens.len() {
                vpos = skip_attrs(&body_tokens, vpos);
                if vpos >= body_tokens.len() {
                    break;
                }
                let vname = match &body_tokens[vpos] {
                    TokenTree::Ident(i) => i.to_string(),
                    other => panic!("serde shim: expected variant name, found {other}"),
                };
                vpos += 1;
                let fields = match body_tokens.get(vpos) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        vpos += 1;
                        Fields::Named(parse_named_fields(g.stream()))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        vpos += 1;
                        Fields::Tuple(count_tuple_fields(g.stream()))
                    }
                    _ => Fields::Unit,
                };
                if let Some(tt) = body_tokens.get(vpos) {
                    if is_punct(tt, '=') {
                        panic!("serde shim: explicit discriminants are not supported ({name}::{vname})");
                    }
                    if is_punct(tt, ',') {
                        vpos += 1;
                    }
                }
                variants.push(Variant {
                    name: vname,
                    fields,
                });
            }
            Item::Enum { name, variants }
        }
        other => panic!("serde shim: cannot derive on `{other}` items"),
    }
}

/// Derive `serde::Serialize` (shim).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let src = match &item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(names) => {
                    let pairs: Vec<String> = names
                        .iter()
                        .map(|f| {
                            format!(
                                "(::std::string::String::from(\"{f}\"), \
                                 ::serde::Serialize::to_value(&self.{f}))"
                            )
                        })
                        .collect();
                    format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
                }
                Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
                }
                Fields::Unit => "::serde::Value::Null".to_string(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => format!(
                            "{name}::{vn} => ::serde::Value::Str(::std::string::String::from(\"{vn}\")),"
                        ),
                        Fields::Tuple(1) => format!(
                            "{name}::{vn}(f0) => ::serde::Value::Object(::std::vec![\
                             (::std::string::String::from(\"{vn}\"), ::serde::Serialize::to_value(f0))]),"
                        ),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_value(f{i})"))
                                .collect();
                            format!(
                                "{name}::{vn}({binds}) => ::serde::Value::Object(::std::vec![\
                                 (::std::string::String::from(\"{vn}\"), \
                                 ::serde::Value::Array(::std::vec![{items}]))]),",
                                binds = binds.join(", "),
                                items = items.join(", ")
                            )
                        }
                        Fields::Named(fields) => {
                            let binds = fields.join(", ");
                            let pairs: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(::std::string::String::from(\"{f}\"), \
                                         ::serde::Serialize::to_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(::std::vec![\
                                 (::std::string::String::from(\"{vn}\"), \
                                 ::serde::Value::Object(::std::vec![{pairs}]))]),",
                                pairs = pairs.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ match self {{ {} }} }}\n\
                 }}",
                arms.join("\n")
            )
        }
    };
    src.parse()
        .expect("serde shim: generated Serialize impl must parse")
}
