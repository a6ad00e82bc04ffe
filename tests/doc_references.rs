//! Documentation must not name things that are gone. Every repo path,
//! every `path:line` reference and every backticked Rust path
//! (`crate::item`, `Type::member`) in README.md, DESIGN.md, EXPERIMENTS.md
//! and docs/*.md has to resolve: to a file, to a line within that file's
//! length, or to an identifier still defined in the workspace's Rust
//! sources. (`bench/README.md` is left out: `bench/` is changed only
//! together with the benchmark it defines.)

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Top-level directories a repo path can start with.
const TOP_DIRS: [&str; 8] = [
    "crates/",
    "tests/",
    "docs/",
    "scripts/",
    "shims/",
    "examples/",
    "bench/",
    ".github/",
];

/// Keywords whose next word is the name of the item they declare.
const ITEM_KEYWORDS: [&str; 10] = [
    "fn",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "mod",
    "union",
    "macro_rules",
];

/// Methods every type gets from a derive.
const DERIVED: [&str; 5] = ["default", "clone", "eq", "fmt", "hash"];

/// Types from `std` and the shimmed dependencies that docs name with a
/// member path; anything else with a capitalised first segment must be
/// defined in the workspace.
const FOREIGN_TYPES: [&str; 12] = [
    "Vec", "Option", "Result", "HashMap", "Mutex", "Condvar", "Arc", "String", "Box", "Instant",
    "Ordering", "Duration",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the workspace root")
        .to_path_buf()
}

fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut docs: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    let mut extra: Vec<PathBuf> = fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .map(|e| e.expect("readable docs/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    extra.sort();
    docs.extend(extra);
    docs
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn words(code: &str) -> Vec<&str> {
    code.split(|c: char| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .collect()
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(is_ident_char) && !s.starts_with(|c: char| c.is_ascii_digit())
}

/// What the workspace's Rust code defines.
struct Definitions {
    /// Every defined name: items, modules (and module files), fields,
    /// enum variants and macros.
    names: HashSet<String>,
    /// `(Type, member)` for each method, associated item, field and
    /// variant declared directly in a type's body or `impl` block.
    members: HashSet<(String, String)>,
    /// Package names, as crate paths spell them.
    crates: HashSet<String>,
}

/// The type an item header opens a body for: `struct X`, `enum X`,
/// `trait X`, `impl<..> X<..>` or `impl<..> Trait for X<..>`.
fn header_owner(code: &str) -> Option<String> {
    let words = words(code);
    for (k, w) in words.iter().enumerate() {
        if matches!(*w, "struct" | "enum" | "trait" | "union") {
            return words.get(k + 1).map(|s| s.to_string());
        }
    }
    let at = code.find("impl")?;
    if !(code[..at].trim().is_empty() || code[..at].trim_end().ends_with("unsafe")) {
        return None;
    }
    let mut rest = &code[at + 4..];
    if !rest.starts_with([' ', '<']) {
        return None;
    }
    rest = rest.trim_start();
    if rest.starts_with('<') {
        let mut depth = 0;
        for (off, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                rest = &rest[off + 1..];
                break;
            }
        }
    }
    if let Some(f) = rest.find(" for ") {
        rest = &rest[f + 5..];
    }
    let path: String = rest
        .trim_start()
        .chars()
        .take_while(|&c| is_ident_char(c) || c == ':')
        .collect();
    path.rsplit("::")
        .next()
        .filter(|s| is_ident(s))
        .map(str::to_string)
}

fn definitions(root: &Path) -> Definitions {
    let mut files = Vec::new();
    rust_files(root, &mut files);
    let mut names = HashSet::new();
    let mut members = HashSet::new();
    for f in &files {
        names.insert(f.file_stem().unwrap().to_string_lossy().into_owned());
        let text = fs::read_to_string(f).expect("readable source");
        // Open type bodies as (type, brace depth inside the body).
        let mut owners: Vec<(String, usize)> = Vec::new();
        let mut pending: Option<String> = None;
        let mut depth = 0usize;
        for line in text.lines() {
            let code = line.split("//").next().unwrap().trim();
            let mut defined = Vec::new();
            for pair in words(code).windows(2) {
                if ITEM_KEYWORDS.contains(&pair[0]) {
                    defined.push(pair[1].to_string());
                }
            }
            // A field (`name: T,`) or a variant (`Name,` / `Name {` /
            // `Name(`): the first word of a line that continues with one
            // of those shapes.
            let rest = code
                .trim_start_matches("pub(crate) ")
                .trim_start_matches("pub ");
            let head: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            let after = rest[head.len()..].trim_start();
            let field = after.starts_with(':') && !after.starts_with("::");
            let variant = head.starts_with(|c: char| c.is_ascii_uppercase())
                && (after.is_empty() || after.starts_with([',', '{', '(', '=']));
            if is_ident(&head) && (field || variant) {
                defined.push(head);
            }
            if let Some((owner, d)) = owners.last() {
                if *d == depth {
                    for name in &defined {
                        members.insert((owner.clone(), name.clone()));
                    }
                }
            }
            names.extend(defined);
            if let Some(owner) = header_owner(code) {
                pending = Some(owner);
            }
            for c in code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        if let Some(owner) = pending.take() {
                            owners.push((owner, depth));
                        }
                    }
                    '}' => {
                        if owners.last().is_some_and(|(_, d)| *d == depth) {
                            owners.pop();
                        }
                        depth = depth.saturating_sub(1);
                    }
                    ';' if pending.is_some() && !code.contains('{') => pending = None,
                    _ => {}
                }
            }
        }
    }
    let mut crates = HashSet::new();
    let mut manifests = vec![root.join("bench/Cargo.toml")];
    for group in ["crates", "shims"] {
        for e in fs::read_dir(root.join(group)).expect("package directory") {
            manifests.push(e.expect("readable entry").path().join("Cargo.toml"));
        }
    }
    for m in manifests {
        if let Ok(text) = fs::read_to_string(&m) {
            if let Some(line) = text.lines().find(|l| l.starts_with("name = ")) {
                crates.insert(line[7..].trim_matches('"').replace('-', "_"));
            }
        }
    }
    Definitions {
        names,
        members,
        crates,
    }
}

/// `a/{b,c}.rs` → `a/b.rs`, `a/c.rs` (one brace group).
fn expand_braces(s: &str) -> Vec<String> {
    match (s.find('{'), s.find('}')) {
        (Some(open), Some(close)) if open < close => s[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{}{}", &s[..open], alt.trim(), &s[close + 1..]))
            .collect(),
        _ => vec![s.to_string()],
    }
}

/// Repo paths (with an optional `:line`, `:a-b` or `:a,b` suffix) in one
/// line of prose.
fn path_refs(line: &str) -> Vec<(String, Vec<usize>)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < line.len() {
        let boundary = i == 0 || {
            let p = bytes[i - 1] as char;
            !(is_ident_char(p) || matches!(p, '-' | '.' | '/'))
        };
        let starts_dir = TOP_DIRS.iter().any(|d| line[i..].starts_with(d));
        let starts_crate = line[i..].split('/').nth(1).is_some_and(|s| {
            matches!(s, "src" | "tests" | "Cargo.toml") && is_crate_dir(&line[i..])
        });
        if !boundary || !(starts_dir || starts_crate) {
            i += line[i..].chars().next().unwrap().len_utf8();
            continue;
        }
        let mut end = i;
        let mut depth = 0;
        for (off, c) in line[i..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth > 0 => depth -= 1,
                c if is_ident_char(c) || matches!(c, '-' | '.' | '/' | '*' | '<' | '>') => {}
                ',' if depth > 0 => {}
                _ => break,
            }
            end = i + off + c.len_utf8();
        }
        let path = line[i..end].trim_end_matches(['.', ',']).to_string();
        let mut lines = Vec::new();
        let tail = &line[i + path.len()..];
        if let Some(nums) = tail.strip_prefix(':') {
            let spec: String = nums
                .chars()
                .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | ','))
                .collect();
            lines = spec
                .split(['-', ','])
                .filter_map(|n| n.parse().ok())
                .collect();
        }
        out.push((path, lines));
        i = end.max(i + 1);
    }
    out
}

/// `gpu-msg/src/...` style paths, relative to `crates/`.
fn is_crate_dir(s: &str) -> bool {
    let dir = s.split('/').next().unwrap_or("");
    root().join("crates").join(dir).is_dir()
}

/// Backticked spans outside fenced code blocks.
fn code_spans(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    for (n, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let parts: Vec<&str> = line.split('`').collect();
        for span in parts.iter().skip(1).step_by(2).take((parts.len() - 1) / 2) {
            out.push((n + 1, span.to_string()));
        }
    }
    out
}

/// The Rust paths a code span names, each split into segments: `A::b()`
/// → `[A, b]`, `A::{b, c}` → `[A, b]`, `[A, c]`. Spans that are not a
/// plain path (expressions, generics, shell text) name nothing.
fn rust_paths(span: &str) -> Vec<Vec<String>> {
    let mut s = span.trim();
    if let Some(open) = s.find('(') {
        if s.ends_with(')') {
            s = &s[..open];
        }
    }
    if !s.contains("::")
        || !s
            .chars()
            .all(|c| is_ident_char(c) || matches!(c, ':' | '{' | '}' | ',' | ' '))
        || (s.contains(' ') && !s.contains('{'))
    {
        return Vec::new();
    }
    expand_braces(&s.replace(' ', ""))
        .into_iter()
        .map(|p| p.split("::").map(str::to_string).collect::<Vec<_>>())
        .filter(|segs| segs.iter().all(|s| is_ident(s)))
        .collect()
}

#[test]
fn doc_references_resolve() {
    let root = root();
    let defs = definitions(&root);
    let owners: HashSet<&str> = defs.members.iter().map(|(t, _)| t.as_str()).collect();
    let mut broken = Vec::new();
    for doc in doc_files(&root) {
        let text = fs::read_to_string(&doc).expect("readable doc");
        let name = doc.strip_prefix(&root).unwrap().display().to_string();
        for (n, line) in text.lines().enumerate() {
            for (path, lines) in path_refs(line) {
                if path.contains(['*', '<']) {
                    continue;
                }
                for p in expand_braces(&path) {
                    let file = [root.join(&p), root.join("crates").join(&p)]
                        .into_iter()
                        .find(|f| f.exists());
                    let Some(file) = file else {
                        broken.push(format!("{name}:{}: no such path `{p}`", n + 1));
                        continue;
                    };
                    if let Some(&max) = lines.iter().max() {
                        let len = fs::read_to_string(&file).map_or(0, |t| t.lines().count());
                        if max > len {
                            broken.push(format!(
                                "{name}:{}: `{p}:{max}` is past the end ({len} lines)",
                                n + 1
                            ));
                        }
                    }
                }
            }
        }
        for (n, span) in code_spans(&text) {
            for segs in rust_paths(&span) {
                let first = segs[0].as_str();
                let checked: &[String] = if defs.crates.contains(first)
                    || matches!(first, "crate" | "self" | "super" | "Self")
                {
                    &segs[1..]
                } else if first.starts_with(|c: char| c.is_ascii_uppercase()) {
                    if FOREIGN_TYPES.contains(&first) {
                        continue;
                    }
                    &segs[..]
                } else {
                    // `std::…`, `f64::…` and other foreign paths.
                    continue;
                };
                for (k, seg) in checked.iter().enumerate() {
                    if !defs.names.contains(seg) {
                        broken.push(format!(
                            "{name}:{n}: `{span}` names `{seg}`, defined nowhere"
                        ));
                        continue;
                    }
                    // `Type::member` must be declared on that type (or
                    // come from a derived trait).
                    let Some(ty) = k.checked_sub(1).map(|p| checked[p].as_str()) else {
                        continue;
                    };
                    if owners.contains(ty)
                        && !DERIVED.contains(&seg.as_str())
                        && !defs.members.contains(&(ty.to_string(), seg.clone()))
                    {
                        broken.push(format!("{name}:{n}: `{span}`: `{ty}` has no `{seg}`"));
                    }
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "{} stale doc references:\n{}",
        broken.len(),
        broken.join("\n")
    );
}

/// The commands `repro` runs besides its outputs.
const REPRO_COMMANDS: [&str; 2] = ["all", "obs_report"];

/// Binaries the workspace builds: each `[[bin]]` name, each
/// `src/bin/*.rs` stem, and a package's own name when its
/// `src/main.rs` is not declared as a `[[bin]]`.
fn binaries(root: &Path) -> HashSet<String> {
    let mut packages = vec![
        root.join("bench"),
        root.join("examples"),
        root.join("tests"),
    ];
    for group in ["crates", "shims"] {
        for e in fs::read_dir(root.join(group)).expect("package directory") {
            packages.push(e.expect("readable entry").path());
        }
    }
    let mut bins = HashSet::new();
    for dir in packages {
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let (mut section, mut package, mut main_declared) = ("", None, false);
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            }
            let value = |key: &str| line.strip_prefix(key).map(|v| v.trim_matches('"'));
            match (section, value("name = "), value("path = ")) {
                ("[package]", Some(name), _) => package = Some(name.to_string()),
                ("[[bin]]", Some(name), _) => {
                    bins.insert(name.to_string());
                }
                ("[[bin]]", _, Some("src/main.rs")) => main_declared = true,
                _ => {}
            }
        }
        if dir.join("src/main.rs").exists() && !main_declared {
            bins.extend(package);
        }
        if let Ok(entries) = fs::read_dir(dir.join("src/bin")) {
            for e in entries {
                let path = e.expect("readable entry").path();
                bins.insert(path.file_stem().unwrap().to_string_lossy().into_owned());
            }
        }
    }
    bins
}

/// The word after each whole-word `keyword ` in `line`, past an
/// optional `-- ` (`--bin repro -- table2`). Placeholders and quoted
/// shell words (`<name>`, `"$example"`) yield nothing.
fn words_after<'a>(line: &'a str, keyword: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (at, _) in line.match_indices(keyword) {
        let whole = !line[..at].ends_with(|c: char| is_ident_char(c) || c == '-');
        let Some(rest) = line[at + keyword.len()..].strip_prefix(' ') else {
            continue;
        };
        let rest = rest.trim_start();
        let rest = rest.strip_prefix("-- ").unwrap_or(rest).trim_start();
        let word = &rest[..rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len())];
        if whole && !word.is_empty() {
            out.push(word);
        }
    }
    out
}

#[test]
fn documented_commands_exist() {
    let root = root();
    let bins = binaries(&root);
    let outputs: Vec<&str> = bench_harness::experiments::OUTPUTS
        .iter()
        .map(|(name, _)| *name)
        .collect();
    let mut files = doc_files(&root);
    files.push(root.join(".github/workflows/ci.yml"));
    let mut broken = Vec::new();
    for doc in files {
        let text = fs::read_to_string(&doc).expect("readable doc");
        let name = doc.strip_prefix(&root).unwrap().display().to_string();
        for (n, line) in text.lines().enumerate() {
            for bin in words_after(line, "--bin") {
                if !bins.contains(bin) {
                    broken.push(format!("{name}:{}: no binary `{bin}`", n + 1));
                }
            }
            for cmd in words_after(line, "repro") {
                if !outputs.contains(&cmd) && !REPRO_COMMANDS.contains(&cmd) {
                    broken.push(format!("{name}:{}: `repro` has no `{cmd}`", n + 1));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "{} commands that do not exist:\n{}",
        broken.len(),
        broken.join("\n")
    );
}

/// `repro` outputs whose fenced blocks in EXPERIMENTS.md are checked
/// against what `repro` prints.
const RENDERED_IN_EXPERIMENTS: [&str; 2] = ["table1", "figure2"];

/// The fenced blocks of each `## ` section of `text` that names
/// `` `repro <name>` ``, each as its lines joined with newlines.
fn fenced_blocks_under(text: &str, name: &str) -> Vec<String> {
    let marker = format!("`repro {name}`");
    let mut blocks = Vec::new();
    for section in text.split("\n## ").filter(|s| s.contains(&marker)) {
        let mut block: Option<Vec<&str>> = None;
        for line in section.lines() {
            if line.trim_start().starts_with("```") {
                match block.take() {
                    Some(lines) => blocks.push(lines.join("\n") + "\n"),
                    None => block = Some(Vec::new()),
                }
            } else if let Some(lines) = block.as_mut() {
                lines.push(line);
            }
        }
    }
    blocks
}

#[test]
fn experiments_blocks_are_slices_of_repro_output() {
    let text = fs::read_to_string(root().join("EXPERIMENTS.md")).expect("readable EXPERIMENTS.md");
    let mut broken = Vec::new();
    for name in RENDERED_IN_EXPERIMENTS {
        let (_, render) = bench_harness::experiments::OUTPUTS
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a repro output");
        let printed = render().text;
        let blocks = fenced_blocks_under(&text, name);
        if blocks.is_empty() {
            broken.push(format!("no fenced block under `repro {name}`"));
        }
        for block in blocks {
            if !printed.contains(&block) {
                broken.push(format!("`repro {name}` does not print:\n{block}"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "EXPERIMENTS.md disagrees with repro:\n{}",
        broken.join("\n")
    );
}
