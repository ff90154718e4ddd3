//! Pool-tree specifications for the hierarchical scheduler.
//!
//! Hadoop's Fair and Capacity schedulers (the paper's refs. 2–3) arrange
//! tenants in a *tree* of pools: each node carries a weight, optional
//! min/max shares per slot kind, and a min-share preemption timeout;
//! leaves receive jobs by name-prefix routing. This module holds the
//! declarative side of that model — [`PoolSpec`], the `hier:` spec-string
//! parser and the `--pools FILE` JSON loader — while
//! [`hier`](crate::hier) implements the scheduling walk itself.
//!
//! ## Spec-string grammar
//!
//! ```text
//! pools    := pool (',' pool)*
//! pool     := name attrs? children?
//! attrs    := '[' key '=' value (',' key '=' value)* ']'
//! children := '{' pools '}'
//! ```
//!
//! Attribute keys: `w` (weight, default 1), `min` / `max` (map-slot
//! shares), `rmin` / `rmax` (reduce-slot shares), `timeout` (min-share
//! preemption timeout in **seconds**; may be fractional). Example:
//!
//! ```text
//! hier:prod[w=3,min=4,timeout=30]{etl,serving},adhoc[w=1]
//! ```
//!
//! A leaf's routing prefix is its path of non-empty names joined with
//! `-`: `prod{etl,serving}` yields leaves `prod-etl` and `prod-serving`.
//! Jobs route to the **first** leaf (depth-first order) whose prefix is a
//! prefix of the job name, falling back to the **last** leaf. This is not
//! `capacity` routing, which picks the *longest* matching queue name:
//! the two agree only when no routing prefix is a prefix of another. List more specific pools before the
//! pools whose prefixes they extend, and a catch-all pool last.
//!
//! ## JSON config (`--pools FILE`)
//!
//! Either a top-level array of pools or `{"pools": [...]}`. Each pool is
//! an object with `"name"` (required) and optional `"weight"`,
//! `"min_maps"`, `"max_maps"`, `"min_reduces"`, `"max_reduces"`,
//! `"preemption_timeout_s"`, `"children"`:
//!
//! ```json
//! {"pools": [
//!   {"name": "prod", "weight": 3, "min_maps": 4, "preemption_timeout_s": 30,
//!    "children": [{"name": "etl"}, {"name": "serving"}]},
//!   {"name": "adhoc", "weight": 1}
//! ]}
//! ```

use simmr_types::DurationMs;

/// One node of a pool tree: a tenant (leaf) or a grouping of tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// Path component of the routing prefix; may be empty (catch-all).
    pub name: String,
    /// Relative share weight among siblings (> 0, default 1).
    pub weight: f64,
    /// Guaranteed map slots; below it the pool is *starved*.
    pub min_maps: Option<usize>,
    /// Guaranteed reduce slots (shapes selection; reduces never preempt).
    pub min_reduces: Option<usize>,
    /// Map-slot ceiling for the subtree.
    pub max_maps: Option<usize>,
    /// Reduce-slot ceiling for the subtree.
    pub max_reduces: Option<usize>,
    /// How long the pool may sit below `min_maps` with pending work
    /// before the scheduler preempts over-share pools. `None` disables
    /// preemption on behalf of this pool; `Some(0)` preempts immediately.
    pub preemption_timeout: Option<DurationMs>,
    /// Child pools; empty means this node is a leaf.
    pub children: Vec<PoolSpec>,
}

impl PoolSpec {
    /// A leaf pool with the given name, weight 1 and no shares.
    pub fn leaf(name: &str) -> Self {
        PoolSpec {
            name: name.to_string(),
            weight: 1.0,
            min_maps: None,
            min_reduces: None,
            max_maps: None,
            max_reduces: None,
            preemption_timeout: None,
            children: Vec::new(),
        }
    }

    /// Sets the weight (builder style).
    pub fn weight(mut self, w: f64) -> Self {
        self.weight = w;
        self
    }

    /// Sets the map-slot min share (builder style).
    pub fn min_maps(mut self, n: usize) -> Self {
        self.min_maps = Some(n);
        self
    }

    /// Sets the map-slot max share (builder style).
    pub fn max_maps(mut self, n: usize) -> Self {
        self.max_maps = Some(n);
        self
    }

    /// Sets the min-share preemption timeout (builder style).
    pub fn preemption_timeout(mut self, ms: DurationMs) -> Self {
        self.preemption_timeout = Some(ms);
        self
    }

    /// Attaches child pools (builder style).
    pub fn children(mut self, children: Vec<PoolSpec>) -> Self {
        self.children = children;
        self
    }
}

/// Parses the `hier:` spec-string pool list (the part after the colon).
pub fn parse_pool_spec(s: &str) -> Result<Vec<PoolSpec>, String> {
    if s.is_empty() {
        return Err("pool tree has no pools".into());
    }
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let pools = parse_pool_list(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(format!("unexpected {:?} at byte {pos}", s[pos..].chars().next().unwrap()));
    }
    validate_pools(&pools)?;
    Ok(pools)
}

fn parse_pool_list(bytes: &[u8], pos: &mut usize) -> Result<Vec<PoolSpec>, String> {
    let mut pools = Vec::new();
    loop {
        pools.push(parse_pool(bytes, pos)?);
        if *pos < bytes.len() && bytes[*pos] == b',' {
            *pos += 1;
            continue;
        }
        break;
    }
    Ok(pools)
}

fn parse_pool(bytes: &[u8], pos: &mut usize) -> Result<PoolSpec, String> {
    let start = *pos;
    while *pos < bytes.len() && !b",[]{}=".contains(&bytes[*pos]) {
        *pos += 1;
    }
    let name = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-UTF8 pool name")?;
    let mut pool = PoolSpec::leaf(name);
    if *pos < bytes.len() && bytes[*pos] == b'[' {
        *pos += 1;
        parse_attrs(bytes, pos, &mut pool)?;
    }
    if *pos < bytes.len() && bytes[*pos] == b'{' {
        *pos += 1;
        pool.children = parse_pool_list(bytes, pos)?;
        if *pos >= bytes.len() || bytes[*pos] != b'}' {
            return Err(format!("pool {:?}: missing closing '}}'", pool.name));
        }
        *pos += 1;
    }
    Ok(pool)
}

fn parse_attrs(bytes: &[u8], pos: &mut usize, pool: &mut PoolSpec) -> Result<(), String> {
    loop {
        let start = *pos;
        while *pos < bytes.len() && !b"=,]".contains(&bytes[*pos]) {
            *pos += 1;
        }
        let key = std::str::from_utf8(&bytes[start..*pos]).expect("sliced at ASCII boundaries");
        if *pos >= bytes.len() || bytes[*pos] != b'=' {
            return Err(format!("pool {:?}: expected '=' after attribute {key:?}", pool.name));
        }
        *pos += 1;
        let vstart = *pos;
        while *pos < bytes.len() && !b",]".contains(&bytes[*pos]) {
            *pos += 1;
        }
        let value = std::str::from_utf8(&bytes[vstart..*pos]).map_err(|_| "non-UTF8 value")?;
        apply_attr(pool, key, value)?;
        if *pos < bytes.len() && bytes[*pos] == b',' {
            *pos += 1;
            continue;
        }
        if *pos < bytes.len() && bytes[*pos] == b']' {
            *pos += 1;
            return Ok(());
        }
        return Err(format!("pool {:?}: missing closing ']'", pool.name));
    }
}

fn apply_attr(pool: &mut PoolSpec, key: &str, value: &str) -> Result<(), String> {
    let ctx = |what: &str| format!("pool {:?}: {what} {value:?}", pool.name);
    let as_usize = |what: &str| value.parse::<usize>().map_err(|_| ctx(what));
    match key {
        "w" => {
            pool.weight = value.parse().map_err(|_| ctx("weight is not a number:"))?;
        }
        "min" => pool.min_maps = Some(as_usize("min is not a slot count:")?),
        "rmin" => pool.min_reduces = Some(as_usize("rmin is not a slot count:")?),
        "max" => pool.max_maps = Some(as_usize("max is not a slot count:")?),
        "rmax" => pool.max_reduces = Some(as_usize("rmax is not a slot count:")?),
        "timeout" => {
            let secs: f64 = value.parse().map_err(|_| ctx("timeout is not a number:"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(ctx("timeout must be finite and >= 0:"));
            }
            pool.preemption_timeout = Some((secs * 1000.0).round() as DurationMs);
        }
        _ => {
            return Err(format!(
                "pool {:?}: unknown attribute {key:?} (valid: w, min, rmin, max, rmax, timeout)",
                pool.name
            ));
        }
    }
    Ok(())
}

/// Renders a pool list back into the spec-string grammar, inverting
/// [`parse_pool_spec`]: `parse_pool_spec(&render_pool_specs(&pools))`
/// yields `pools` again. Attributes appear in the fixed order `w, min,
/// max, rmin, rmax, timeout` (weight omitted at its default of 1), so
/// the rendering is canonical: equal pool trees render equal strings.
/// Pool order is preserved — for `hier` it is routing order and carries
/// semantics.
pub fn render_pool_specs(pools: &[PoolSpec]) -> String {
    let mut out = String::new();
    for (i, pool) in pools.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_pool(pool, &mut out);
    }
    out
}

fn render_pool(pool: &PoolSpec, out: &mut String) {
    use std::fmt::Write;
    out.push_str(&pool.name);
    let mut attrs = String::new();
    if pool.weight != 1.0 {
        let _ = write!(attrs, "w={}", pool.weight);
    }
    for (key, value) in [
        ("min", pool.min_maps),
        ("max", pool.max_maps),
        ("rmin", pool.min_reduces),
        ("rmax", pool.max_reduces),
    ] {
        if let Some(n) = value {
            if !attrs.is_empty() {
                attrs.push(',');
            }
            let _ = write!(attrs, "{key}={n}");
        }
    }
    if let Some(ms) = pool.preemption_timeout {
        if !attrs.is_empty() {
            attrs.push(',');
        }
        // the grammar takes (possibly fractional) seconds
        let _ = write!(attrs, "timeout={}", ms as f64 / 1000.0);
    }
    if !attrs.is_empty() {
        out.push('[');
        out.push_str(&attrs);
        out.push(']');
    }
    if !pool.children.is_empty() {
        out.push('{');
        for (i, child) in pool.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_pool(child, out);
        }
        out.push('}');
    }
}

/// Structural validation shared by the spec-string and JSON loaders.
pub fn validate_pools(pools: &[PoolSpec]) -> Result<(), String> {
    if pools.is_empty() {
        return Err("pool tree has no pools".into());
    }
    let mut prefixes = Vec::new();
    for pool in pools {
        validate_node(pool, "")?;
        collect_leaf_prefixes(pool, "", &mut prefixes);
    }
    for (i, p) in prefixes.iter().enumerate() {
        if prefixes[..i].contains(p) {
            return Err(format!("duplicate leaf pool prefix {p:?}"));
        }
    }
    Ok(())
}

fn validate_node(pool: &PoolSpec, parent_prefix: &str) -> Result<(), String> {
    let prefix = join_prefix(parent_prefix, &pool.name);
    if !pool.weight.is_finite() || pool.weight <= 0.0 {
        return Err(format!("pool {prefix:?}: weight must be finite and > 0"));
    }
    for (min, max, what) in
        [(pool.min_maps, pool.max_maps, "map"), (pool.min_reduces, pool.max_reduces, "reduce")]
    {
        if let (Some(min), Some(max)) = (min, max) {
            if min > max {
                return Err(format!("pool {prefix:?}: {what} min share {min} exceeds max {max}"));
            }
        }
    }
    if pool.preemption_timeout.is_some() && pool.min_maps.is_none() {
        return Err(format!("pool {prefix:?}: preemption timeout without a map min share"));
    }
    for child in &pool.children {
        validate_node(child, &prefix)?;
    }
    Ok(())
}

/// Routing prefix of a child pool: non-empty path components joined
/// with `-` (matching the tenant tagging of the multi-tenant workload).
pub(crate) fn join_prefix(parent: &str, name: &str) -> String {
    match (parent.is_empty(), name.is_empty()) {
        (true, _) => name.to_string(),
        (_, true) => parent.to_string(),
        _ => format!("{parent}-{name}"),
    }
}

fn collect_leaf_prefixes(pool: &PoolSpec, parent: &str, out: &mut Vec<String>) {
    let prefix = join_prefix(parent, &pool.name);
    if pool.children.is_empty() {
        out.push(prefix);
    } else {
        for child in &pool.children {
            collect_leaf_prefixes(child, &prefix, out);
        }
    }
}

/// Loads a pool tree from the `--pools FILE` JSON document.
pub fn pools_from_json(text: &str) -> Result<Vec<PoolSpec>, String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("pool config is not JSON: {e}"))?;
    let list = match &doc {
        serde_json::Value::Array(pools) => pools.as_slice(),
        serde_json::Value::Object(_) => match doc.get("pools") {
            Some(serde_json::Value::Array(pools)) => pools.as_slice(),
            _ => return Err("pool config object needs a \"pools\" array".into()),
        },
        _ => return Err("pool config must be an array or an object with \"pools\"".into()),
    };
    let pools = list.iter().map(pool_from_json).collect::<Result<Vec<_>, _>>()?;
    validate_pools(&pools)?;
    Ok(pools)
}

fn pool_from_json(value: &serde_json::Value) -> Result<PoolSpec, String> {
    let serde_json::Value::Object(fields) = value else {
        return Err("each pool must be a JSON object".into());
    };
    let known = [
        "name",
        "weight",
        "min_maps",
        "min_reduces",
        "max_maps",
        "max_reduces",
        "preemption_timeout_s",
        "children",
    ];
    if let Some((key, _)) = fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        return Err(format!("unknown pool field {key:?} (valid: {})", known.join(", ")));
    }
    let Some(serde_json::Value::Str(name)) = value.get("name") else {
        return Err("pool is missing a string \"name\"".into());
    };
    let mut pool = PoolSpec::leaf(name);
    if let Some(w) = value.get("weight") {
        pool.weight = json_number(w).ok_or_else(|| format!("pool {name:?}: bad weight"))?;
    }
    for (key, slot) in [
        ("min_maps", &mut pool.min_maps),
        ("min_reduces", &mut pool.min_reduces),
        ("max_maps", &mut pool.max_maps),
        ("max_reduces", &mut pool.max_reduces),
    ] {
        if let Some(v) = value.get(key) {
            match v {
                serde_json::Value::U64(n) => *slot = Some(*n as usize),
                _ => return Err(format!("pool {name:?}: {key} must be a non-negative integer")),
            }
        }
    }
    if let Some(v) = value.get("preemption_timeout_s") {
        let secs = json_number(v)
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or_else(|| format!("pool {name:?}: preemption_timeout_s must be >= 0"))?;
        pool.preemption_timeout = Some((secs * 1000.0).round() as DurationMs);
    }
    if let Some(v) = value.get("children") {
        let serde_json::Value::Array(children) = v else {
            return Err(format!("pool {name:?}: children must be an array"));
        };
        pool.children = children.iter().map(pool_from_json).collect::<Result<Vec<_>, _>>()?;
    }
    Ok(pool)
}

fn json_number(v: &serde_json::Value) -> Option<f64> {
    match v {
        serde_json::Value::U64(n) => Some(*n as f64),
        serde_json::Value::I64(n) => Some(*n as f64),
        serde_json::Value::F64(n) => Some(*n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_issue_example() {
        let pools = parse_pool_spec("prod[w=3,min=4]{etl,serving},adhoc[w=1]").unwrap();
        assert_eq!(pools.len(), 2);
        assert_eq!(pools[0].name, "prod");
        assert_eq!(pools[0].weight, 3.0);
        assert_eq!(pools[0].min_maps, Some(4));
        assert_eq!(pools[0].children.len(), 2);
        assert_eq!(pools[0].children[1].name, "serving");
        assert_eq!(pools[1].name, "adhoc");
        assert_eq!(pools[1].weight, 1.0);
        assert!(pools[1].children.is_empty());
    }

    #[test]
    fn timeout_attr_is_seconds() {
        let pools = parse_pool_spec("p[min=2,timeout=30],q[min=1,timeout=0.5]").unwrap();
        assert_eq!(pools[0].preemption_timeout, Some(30_000));
        assert_eq!(pools[1].preemption_timeout, Some(500));
    }

    #[test]
    fn nested_children_and_attrs() {
        let pools = parse_pool_spec("a[w=2]{b[min=1,timeout=0],c{d,e}},f").unwrap();
        assert_eq!(pools[0].children[1].children.len(), 2);
        assert_eq!(pools[0].children[0].preemption_timeout, Some(0));
        let mut prefixes = Vec::new();
        collect_leaf_prefixes(&pools[0], "", &mut prefixes);
        assert_eq!(prefixes, vec!["a-b", "a-c-d", "a-c-e"]);
    }

    #[test]
    fn empty_name_is_catch_all_prefix() {
        let pools = parse_pool_spec("prod,[w=1]").unwrap();
        let mut prefixes = Vec::new();
        for p in &pools {
            collect_leaf_prefixes(p, "", &mut prefixes);
        }
        assert_eq!(prefixes, vec!["prod", ""]);
    }

    #[test]
    fn spec_errors() {
        for (bad, needle) in [
            ("", "no pools"),
            ("p[w=0]", "finite and > 0"),
            ("p[w=x]", "not a number"),
            ("p[zzz=1]", "unknown attribute"),
            ("p[min=2,max=1]", "exceeds max"),
            ("p[timeout=30]", "without a map min share"),
            ("p[min=-1]", "not a slot count"),
            ("p{q", "missing closing '}'"),
            ("p[w=1", "missing closing ']'"),
            ("p}q", "unexpected"),
            ("p,p", "duplicate leaf"),
            ("a{x},a-x", "duplicate leaf"),
        ] {
            let err = parse_pool_spec(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }

    #[test]
    fn json_round_trip_of_issue_example() {
        let pools = pools_from_json(
            r#"{"pools": [
                {"name": "prod", "weight": 3, "min_maps": 4,
                 "preemption_timeout_s": 30,
                 "children": [{"name": "etl"}, {"name": "serving"}]},
                {"name": "adhoc", "weight": 1}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            pools,
            parse_pool_spec("prod[w=3,min=4,timeout=30]{etl,serving},adhoc[w=1]").unwrap()
        );
    }

    #[test]
    fn json_top_level_array_and_errors() {
        assert_eq!(pools_from_json(r#"[{"name": "p"}]"#).unwrap().len(), 1);
        for (bad, needle) in [
            ("17", "array or an object"),
            ("{}", "\"pools\" array"),
            (r#"[{"weight": 1}]"#, "missing a string"),
            (r#"[{"name": "p", "min_maps": -1}]"#, "non-negative integer"),
            (r#"[{"name": "p", "typo": 1}]"#, "unknown pool field"),
            (r#"[{"name": "p", "children": 3}]"#, "must be an array"),
            (r#"[{"name": "p", "weight": 0}]"#, "finite and > 0"),
            ("[{\"name\": \"p\"", "not JSON"),
        ] {
            let err = pools_from_json(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }
}
