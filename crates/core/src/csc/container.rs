//! Container API specification for the container access pattern (§3.3, §4.3).
//!
//! The paper annotates JDK container APIs with three roles — `Entrances`
//! (methods that add elements), `Exits` (methods that return elements), and
//! `Transfers` (methods that return host-dependent objects such as iterators
//! and map views). The spec is given by class/method *names* and resolved
//! against a concrete program; resolution expands each entry over the class
//! hierarchy so that subclasses inheriting or overriding a container method
//! are covered.

use csc_ir::{ClassId, MethodId, Program};

/// Which kind of container element a role manipulates. Distinguishing map
/// keys from map values lets `keySet()` iterators match `put`'s key argument
/// rather than its value argument.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Values of a collection.
    Col,
    /// Keys of a map.
    MapKey,
    /// Values of a map.
    MapVal,
}

/// A name-based container API specification.
#[derive(Clone, Debug, Default)]
pub struct ContainerSpec {
    /// Root classes whose instances are host (container) objects, with the
    /// category family they belong to (`true` = map).
    pub host_roots: Vec<(String, bool)>,
    /// `(class, method, k, category)`: the `k`-th argument (paper numbering,
    /// 0 = receiver) of calls to `class.method` flows into the container.
    pub entrances: Vec<(String, String, usize, Category)>,
    /// `(class, method, category)`: calls to `class.method` return container
    /// elements.
    pub exits: Vec<(String, String, Category)>,
    /// `(class, method)`: calls transfer the host from the receiver to the
    /// result (iterators, map views).
    pub transfers: Vec<(String, String)>,
}

impl ContainerSpec {
    /// The specification matching the `csc-workloads` mini-JDK. Mirrors the
    /// paper's five-hour JDK annotation effort at mini scale.
    pub fn mini_jdk() -> Self {
        let e = |c: &str, m: &str, k: usize, cat| (c.to_owned(), m.to_owned(), k, cat);
        let x = |c: &str, m: &str, cat| (c.to_owned(), m.to_owned(), cat);
        let t = |c: &str, m: &str| (c.to_owned(), m.to_owned());
        ContainerSpec {
            host_roots: vec![("Collection".to_owned(), false), ("Map".to_owned(), true)],
            entrances: vec![
                e("Collection", "add", 1, Category::Col),
                e("Collection", "addFirst", 1, Category::Col),
                e("List", "set", 2, Category::Col),
                e("Map", "put", 1, Category::MapKey),
                e("Map", "put", 2, Category::MapVal),
            ],
            exits: vec![
                x("List", "get", Category::Col),
                x("List", "removeFirst", Category::Col),
                x("Iterator", "next", Category::Col),
                x("KeyIterator", "next", Category::MapKey),
                x("ValueIterator", "next", Category::MapVal),
                x("Map", "get", Category::MapVal),
                x("Map", "remove", Category::MapVal),
            ],
            transfers: vec![
                t("Collection", "iterator"),
                t("Map", "keySet"),
                t("Map", "values"),
                t("KeySetView", "iterator"),
                t("ValuesView", "iterator"),
            ],
        }
    }

    /// Resolves names against a program, expanding entries over the class
    /// hierarchy. Entries whose classes or methods are absent from the
    /// program are silently skipped (programs need not link the whole
    /// mini-JDK).
    pub fn resolve(&self, program: &Program) -> ResolvedContainerSpec {
        let nmethods = program.methods().len();
        let mut collection_roots = Vec::new();
        let mut map_roots = Vec::new();
        for (name, is_map) in &self.host_roots {
            if let Some(c) = program.class_by_name(name) {
                if *is_map {
                    map_roots.push(c);
                } else {
                    collection_roots.push(c);
                }
            }
        }
        let host_class = (0..program.classes().len())
            .map(|c| {
                let c = ClassId::from_usize(c);
                collection_roots
                    .iter()
                    .chain(&map_roots)
                    .any(|&root| program.is_subclass(c, root))
            })
            .collect();
        let mut resolved = ResolvedContainerSpec {
            collection_roots,
            map_roots,
            host_class,
            entrances: vec![Vec::new(); nmethods],
            exits: vec![None; nmethods],
            transfers: vec![false; nmethods],
        };
        // For entry (C, m): every concrete method that a call on any
        // subclass of C may dispatch to.
        let concrete_impls = |class_name: &str, method_name: &str| -> Vec<MethodId> {
            let Some(base) = program.class_by_name(class_name) else {
                return Vec::new();
            };
            let Some(decl) = program.resolve_method(base, method_name) else {
                return Vec::new();
            };
            let mut out: Vec<MethodId> = (0..program.classes().len())
                .map(ClassId::from_usize)
                .filter(|&c| program.is_subclass(c, base))
                .filter_map(|c| program.dispatch(c, decl))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        for (c, m, k, cat) in &self.entrances {
            for id in concrete_impls(c, m) {
                resolved.entrances[id.index()].push((*k, *cat));
            }
        }
        for (c, m, cat) in &self.exits {
            for id in concrete_impls(c, m) {
                resolved.exits[id.index()].get_or_insert(*cat);
            }
        }
        for (c, m) in &self.transfers {
            for id in concrete_impls(c, m) {
                resolved.transfers[id.index()] = true;
            }
        }
        resolved
    }
}

/// A [`ContainerSpec`] resolved against a concrete program. The tables
/// are indexed by class or method id; an empty entry means no role.
#[derive(Clone, Debug)]
pub struct ResolvedContainerSpec {
    /// Classes whose instances are collection hosts (`[ColHost]`).
    pub(crate) collection_roots: Vec<ClassId>,
    /// Classes whose instances are map hosts (`[MapHost]`).
    pub(crate) map_roots: Vec<ClassId>,
    /// Per class: whether it is a subclass of a root, so that its
    /// instances are hosts.
    host_class: Vec<bool>,
    /// Per method: its `(arg index, category)` entrance annotations.
    pub(crate) entrances: Vec<Vec<(usize, Category)>>,
    /// Per method: the category it returns, if it is an exit.
    pub(crate) exits: Vec<Option<Category>>,
    /// Per method: whether it is a transfer.
    pub(crate) transfers: Vec<bool>,
}

impl ResolvedContainerSpec {
    /// Whether objects of `class` are hosts (the `[ColHost]`/`[MapHost]`
    /// premise).
    pub fn is_host_class(&self, class: ClassId) -> bool {
        self.host_class[class.index()]
    }

    /// Whether `m` is an entrance, an exit or a transfer.
    pub(crate) fn has_role(&self, m: MethodId) -> bool {
        let m = m.index();
        !self.entrances[m].is_empty() || self.exits[m].is_some() || self.transfers[m]
    }

    /// Whether `new` (resolved against a patched, additions-only extension
    /// of the base program) agrees with `self` (resolved against the base)
    /// on the base entity domain. Root class lists must be exactly equal —
    /// host classification is hierarchy-wide, so a delta-added root class
    /// is conservatively not rebasable — while entrance/exit/transfer
    /// annotations may gain entries for appended methods only (an added
    /// annotation on a *base* method means existing call edges missed its
    /// container obligations). `self`'s method tables cover exactly the
    /// base methods, so those checks are prefix comparisons.
    pub fn compatible_extension(&self, new: &ResolvedContainerSpec) -> bool {
        self.collection_roots == new.collection_roots
            && self.map_roots == new.map_roots
            && new.entrances.starts_with(&self.entrances)
            && new.exits.starts_with(&self.exits)
            && new.transfers.starts_with(&self.transfers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_skips_missing_classes() {
        let program =
            csc_frontend::compile("class Main { static void main() { Object o = new Object(); } }")
                .unwrap();
        let spec = ContainerSpec::mini_jdk().resolve(&program);
        let nmethods = program.methods().len() as u32;
        assert!((0..nmethods).all(|m| !spec.has_role(MethodId::new(m))));
        assert!(spec.collection_roots.is_empty());
        assert!(spec.map_roots.is_empty());
    }

    #[test]
    fn resolve_expands_over_hierarchy() {
        let program = csc_frontend::compile(
            r#"
            abstract class Collection {
                abstract void add(Object e);
                abstract Iterator iterator();
            }
            class Node { Object item; Node next; }
            class Iterator {
                Node cur;
                Object next() { Node n; n = this.cur; this.cur = n.next; return n.item; }
                boolean hasNext() { return true; }
            }
            class ArrayList extends Collection {
                Node head;
                void add(Object e) { Node n = new Node(); n.item = e; n.next = this.head; this.head = n; }
                Iterator iterator() { Iterator it = new Iterator(); it.cur = this.head; return it; }
            }
            class SubList extends ArrayList { }
            class Main {
                static void main() {
                    ArrayList l = new ArrayList();
                    l.add(new Object());
                }
            }
            "#,
        )
        .unwrap();
        let spec = ContainerSpec::mini_jdk().resolve(&program);
        let add = program.method_by_qualified_name("ArrayList.add").unwrap();
        let iter = program
            .method_by_qualified_name("ArrayList.iterator")
            .unwrap();
        let next = program.method_by_qualified_name("Iterator.next").unwrap();
        assert_eq!(spec.entrances[add.index()], vec![(1, Category::Col)]);
        assert!(spec.transfers[iter.index()]);
        assert_eq!(spec.exits[next.index()], Some(Category::Col));
        let al = program.class_by_name("ArrayList").unwrap();
        let sub = program.class_by_name("SubList").unwrap();
        assert!(spec.is_host_class(al));
        assert!(spec.is_host_class(sub));
        let node = program.class_by_name("Node").unwrap();
        assert!(!spec.is_host_class(node));
    }
}
