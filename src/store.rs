//! Directory-backed artifact persistence: the [`ArtifactStore`].
//!
//! A store is a plain directory of `.ftspan` files, one binary-serialized
//! [`FtSpanner`] per file (layout documented on
//! [`FtSpanner::to_binary_writer`], decoded through the validated
//! [`FtSpannerView`](ftspan_core::serve::FtSpannerView)); the file stem is
//! the artifact's serving name. Sharded artifacts persist as a versioned
//! text manifest `<name>.ftshard` plus one `.ftspan` file per shard
//! (`<name>.shard<i>.ftspan`). Build artifacts on a construction
//! machine, [`save`](ArtifactStore::save) /
//! [`save_sharded`](ArtifactStore::save_sharded) them, ship the directory,
//! and [`load_into`](ArtifactStore::load_into) an [`Engine`] at serving
//! startup — manifests register as sharded artifacts, and their shard pieces
//! are not double-registered as flat ones.

use crate::shard::{CutEdge, ShardedArtifact};
use crate::Engine;
use ftspan_core::serve::FtSpanner;
use ftspan_core::{CoreError, Result};
use ftspan_graph::NodeId;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File extension of stored artifacts (without the dot).
pub const ARTIFACT_EXTENSION: &str = "ftspan";

/// File extension of sharded-artifact manifests (without the dot).
pub const SHARD_MANIFEST_EXTENSION: &str = "ftshard";

/// A directory of binary `.ftspan` artifacts, addressed by name.
///
/// Names are file stems and restricted to `[A-Za-z0-9._-]` (no path
/// separators), so a store can never read or write outside its directory.
/// All I/O failures surface as typed [`CoreError::InvalidParameter`] values
/// carrying the offending path.
///
/// # Example
///
/// ```
/// use fault_tolerant_spanners::prelude::*;
/// use fault_tolerant_spanners::ArtifactStore;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let network = generate::connected_gnp(20, 0.3, generate::WeightKind::Unit, &mut rng);
/// let artifact = FtSpannerBuilder::new("conversion")
///     .faults(1)
///     .build_artifact(&network)
///     .unwrap();
///
/// let dir = std::env::temp_dir().join(format!("ftspan-doc-{}", std::process::id()));
/// let store = ArtifactStore::open(&dir).unwrap();
/// store.save("backbone", &artifact).unwrap();
/// assert_eq!(store.names().unwrap(), vec!["backbone"]);
///
/// // Serving startup: load the whole directory into an engine.
/// let mut engine = Engine::new();
/// let loaded = store.load_into(&mut engine).unwrap();
/// assert_eq!(loaded, vec!["backbone"]);
/// let results = engine.run_batch(&[Query::distance(
///     "backbone",
///     vec![NodeId::new(3)],
///     NodeId::new(0),
///     NodeId::new(7),
/// )]);
/// assert!(results[0].is_ok());
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if necessary) the store directory.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the directory cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| CoreError::InvalidParameter {
            message: format!("cannot create artifact store at {}: {e}", dir.display()),
        })?;
        Ok(ArtifactStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn is_valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
            && !name.starts_with('.')
    }

    /// The path of `<name>.<extension>` in the store, after checking that
    /// `name` is addressable.
    fn path_with_extension(&self, name: &str, extension: &str) -> Result<PathBuf> {
        if !Self::is_valid_name(name) {
            return Err(CoreError::InvalidParameter {
                message: format!(
                    "invalid artifact name `{name}`: expected [A-Za-z0-9._-]+ not starting \
                     with a dot"
                ),
            });
        }
        Ok(self.dir.join(format!("{name}.{extension}")))
    }

    /// Writes `artifact` as `<name>.ftspan` (replacing any previous version)
    /// and returns the path. The write goes through a synced temp file
    /// renamed into place, and on Unix the directory is synced after the
    /// rename, so a returned `Ok` survives a crash or power loss.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on an invalid name or a write
    /// failure.
    pub fn save(&self, name: &str, artifact: &FtSpanner) -> Result<PathBuf> {
        let path = self.path_with_extension(name, ARTIFACT_EXTENSION)?;
        self.write_atomic(&path, |writer| artifact.to_binary_writer(writer))?;
        Ok(path)
    }

    /// Writes `path` through a sibling temp file renamed into place: a crash
    /// or a failed write can then never truncate the previous good file or
    /// leave a partial one for the next cold load to trip over. (The
    /// `.tmp-*` extension keeps stragglers out of `names()`; the pid +
    /// counter makes the path unique per call, so concurrent saves of one
    /// name cannot interleave on a shared temp file.) The explicit flush
    /// matters too — artifacts are smaller than BufWriter's buffer, so Drop
    /// would do the real write and swallow a full disk.
    ///
    /// Durability: the temp file is synced before the rename, and on Unix the
    /// store directory is synced after it, so once this returns `Ok` the new
    /// file survives a power loss instead of reverting to the previous one
    /// (the rename lives in the directory's entries, not in the file).
    fn write_atomic(
        &self,
        path: &Path,
        write_body: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
    ) -> Result<()> {
        static SAVE_COUNTER: AtomicU64 = AtomicU64::new(0);
        let file_name = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or("artifact");
        let tmp = self.dir.join(format!(
            "{file_name}.tmp-{}-{}",
            std::process::id(),
            SAVE_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let write = (|| {
            let mut writer = BufWriter::new(File::create(&tmp)?);
            write_body(&mut writer)?;
            writer.flush()?;
            // Force the bytes to disk before renaming: journaling filesystems
            // may order the rename ahead of the data, and a power loss would
            // otherwise install a truncated file where the good one was.
            writer.get_ref().sync_all()
        })();
        if let Err(e) = write.and_then(|()| std::fs::rename(&tmp, path)) {
            std::fs::remove_file(&tmp).ok();
            return Err(CoreError::InvalidParameter {
                message: format!("cannot write {}: {e}", path.display()),
            });
        }
        #[cfg(unix)]
        File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| CoreError::InvalidParameter {
                message: format!("cannot sync store directory {}: {e}", self.dir.display()),
            })?;
        Ok(())
    }

    /// Loads the named artifact.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on an invalid name, or one
    /// naming the file when it is missing or holds malformed artifact data.
    pub fn load(&self, name: &str) -> Result<FtSpanner> {
        FtSpanner::from_binary_file(self.path_with_extension(name, ARTIFACT_EXTENSION)?)
    }

    /// The names of every stored artifact (`.ftspan` file stems), sorted.
    ///
    /// Only **addressable** stems are listed — ones [`ArtifactStore::load`]
    /// accepts. Files whose stems fall outside the name alphabet (editor
    /// temporaries like `.#backbone.ftspan`, stray copies with spaces) are
    /// ignored, so a cold [`ArtifactStore::load_into`] never trips over
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the directory cannot be
    /// read.
    pub fn names(&self) -> Result<Vec<String>> {
        self.stems_with_extension(ARTIFACT_EXTENSION)
    }

    fn stems_with_extension(&self, extension: &str) -> Result<Vec<String>> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| CoreError::InvalidParameter {
            message: format!("cannot read artifact store {}: {e}", self.dir.display()),
        })?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| CoreError::InvalidParameter {
                message: format!("cannot read artifact store {}: {e}", self.dir.display()),
            })?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(extension) {
                continue;
            }
            // A subdirectory named `*.ftspan` is not loadable; listing it
            // would make every cold `load_into` fail on EISDIR.
            if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if Self::is_valid_name(stem) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    /// The store name of shard `i` of sharded artifact `name`.
    fn shard_stem(name: &str, i: usize) -> String {
        format!("{name}.shard{i}")
    }

    /// Writes a sharded artifact: one `.ftspan` file per shard
    /// (`<name>.shard<i>.ftspan`) plus the versioned text manifest
    /// `<name>.ftshard` carrying the vertex → part assignment and the cut
    /// edges. The manifest is written last, and atomically, so a readable
    /// manifest always references fully written shards. Returns the manifest
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on an invalid name or a write
    /// failure.
    pub fn save_sharded(&self, name: &str, artifact: &ShardedArtifact) -> Result<PathBuf> {
        let path = self.path_with_extension(name, SHARD_MANIFEST_EXTENSION)?;
        for (i, shard) in artifact.shards().iter().enumerate() {
            self.save(&Self::shard_stem(name, i), shard)?;
        }
        self.write_atomic(&path, |writer| {
            writeln!(writer, "ftshard 1")?;
            writeln!(writer, "shards {}", artifact.shard_count())?;
            writeln!(writer, "nodes {}", artifact.node_count())?;
            writeln!(writer, "cuts {}", artifact.cut_edge_count())?;
            write!(writer, "assignment")?;
            for &p in artifact.assignment() {
                write!(writer, " {p}")?;
            }
            writeln!(writer)?;
            for c in artifact.cut_edges() {
                // `{:?}` prints the shortest exactly-round-tripping decimal,
                // so weights survive the text manifest bit for bit.
                writeln!(writer, "cut {} {} {:?}", c.u.index(), c.v.index(), c.weight)?;
            }
            writeln!(writer, "end")
        })?;
        Ok(path)
    }

    /// Loads the named sharded artifact from its manifest and shard files,
    /// revalidating the parts against each other
    /// ([`ShardedArtifact::from_parts`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on an invalid name, a missing
    /// or malformed manifest (the error names the file), a missing or
    /// corrupt shard file, or mutually inconsistent parts.
    pub fn load_sharded(&self, name: &str) -> Result<ShardedArtifact> {
        let path = self.path_with_extension(name, SHARD_MANIFEST_EXTENSION)?;
        let text = std::fs::read_to_string(&path).map_err(|e| CoreError::InvalidParameter {
            message: format!("cannot open {}: {e}", path.display()),
        })?;
        let malformed = |what: &str| CoreError::InvalidParameter {
            message: format!("malformed {what} in shard manifest {}", path.display()),
        };

        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("ftshard 1") {
            return Err(malformed("header"));
        }
        let mut field = |key: &str| -> Result<String> {
            let line = lines.next().ok_or_else(|| malformed(key))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| malformed(key))
        };
        // Counts parse through the u32 id width so oversized values are
        // typed errors, not absurd allocations.
        let count = |what: &str, token: &str| -> Result<usize> {
            token
                .parse::<u32>()
                .map(|v| v as usize)
                .map_err(|_| malformed(what))
        };
        let shards = count("shard count", &field("shards")?)?;
        let nodes = count("node count", &field("nodes")?)?;
        let cut_count = count("cut count", &field("cuts")?)?;

        let assignment_line = field("assignment")?;
        let assignment = assignment_line
            .split_ascii_whitespace()
            .map(|t| t.parse::<u32>().map_err(|_| malformed("assignment entry")))
            .collect::<Result<Vec<u32>>>()?;
        if assignment.len() != nodes {
            return Err(malformed("assignment length"));
        }

        // The claimed count only sizes the first allocation up to a clamp;
        // real growth is driven by `cut` lines actually present, so a lying
        // `cuts` value cannot allocate past the clamp before the parse
        // fails. (Found by the `.ftshard` fuzz battery: a forged
        // `cuts 4294967295` previously requested ~100 GiB up front.)
        let mut cut_edges = Vec::with_capacity(cut_count.min(1024));
        for _ in 0..cut_count {
            let line = field("cut")?;
            let mut tokens = line.split_ascii_whitespace();
            let mut endpoint = || -> Result<NodeId> {
                tokens
                    .next()
                    .ok_or_else(|| malformed("cut edge"))
                    .and_then(|t| count("cut endpoint", t).map(NodeId::new))
            };
            let (u, v) = (endpoint()?, endpoint()?);
            let weight = tokens
                .next()
                .and_then(|t| t.parse::<f64>().ok())
                .ok_or_else(|| malformed("cut weight"))?;
            if tokens.next().is_some() {
                return Err(malformed("cut edge"));
            }
            cut_edges.push(CutEdge { u, v, weight });
        }
        if lines.next().map(str::trim) != Some("end") {
            return Err(malformed("trailer"));
        }
        // Anything after `end` is smuggled content, not formatting slack.
        // (Found by the `.ftshard` fuzz battery: trailing garbage was
        // silently accepted.)
        if lines.next().is_some() {
            return Err(malformed("trailer"));
        }

        let parts = (0..shards)
            .map(|i| self.load(&Self::shard_stem(name, i)))
            .collect::<Result<Vec<_>>>()?;
        let artifact = ShardedArtifact::from_parts(parts, assignment, cut_edges)?;
        if artifact.node_count() != nodes {
            return Err(malformed("node count"));
        }
        Ok(artifact)
    }

    /// The names of every stored sharded artifact (`.ftshard` manifest
    /// stems), sorted. Same addressability rules as
    /// [`ArtifactStore::names`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the directory cannot be
    /// read.
    pub fn sharded_names(&self) -> Result<Vec<String>> {
        self.stems_with_extension(SHARD_MANIFEST_EXTENSION)
    }

    /// Loads **every** stored artifact and registers each in `engine` under
    /// its file stem, returning the sorted names that were registered.
    ///
    /// Shard manifests register as sharded artifacts; the `.ftspan` pieces a
    /// manifest references are *not* additionally registered as flat
    /// artifacts, so the engine's catalogue matches what was saved.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on the first unreadable or
    /// malformed file; artifacts loaded before the failure stay registered.
    pub fn load_into(&self, engine: &mut Engine) -> Result<Vec<String>> {
        let sharded = self.sharded_names()?;
        let mut claimed: BTreeSet<String> = BTreeSet::new();
        for name in &sharded {
            let artifact = self.load_sharded(name)?;
            for i in 0..artifact.shard_count() {
                claimed.insert(Self::shard_stem(name, i));
            }
            engine.register_sharded(name, artifact);
        }
        let mut registered = sharded;
        for name in self.names()? {
            if claimed.contains(&name) {
                continue;
            }
            let artifact = self.load(&name)?;
            engine.register(&name, artifact);
            registered.push(name);
        }
        registered.sort_unstable();
        Ok(registered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FtSpannerBuilder, Query};
    use ftspan_graph::{generate, NodeId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("ftspan-store-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ArtifactStore::open(&dir).unwrap()
    }

    fn artifact(seed: u64) -> FtSpanner {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::connected_gnp(16, 0.3, generate::WeightKind::Unit, &mut rng);
        FtSpannerBuilder::new("conversion")
            .faults(1)
            .build_artifact(&g)
            .unwrap()
    }

    #[test]
    fn save_load_round_trips_and_fills_an_engine() {
        let store = temp_store("roundtrip");
        let a = artifact(1);
        let b = artifact(2);
        store.save("alpha", &a).unwrap();
        store.save("beta", &b).unwrap();
        assert_eq!(store.names().unwrap(), vec!["alpha", "beta"]);
        assert_eq!(store.load("alpha").unwrap(), a);

        let mut engine = Engine::new();
        let loaded = store.load_into(&mut engine).unwrap();
        assert_eq!(loaded, vec!["alpha", "beta"]);
        assert_eq!(engine.names(), vec!["alpha", "beta"]);
        let results = engine.run_batch(&[
            Query::distance(
                "alpha",
                vec![NodeId::new(1)],
                NodeId::new(0),
                NodeId::new(5),
            ),
            Query::distance("beta", vec![], NodeId::new(2), NodeId::new(3)),
        ]);
        assert!(results.iter().all(|r| r.is_ok()));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn save_replaces_atomically_and_leaves_no_temp_files() {
        let store = temp_store("replace");
        let first = artifact(10);
        let second = artifact(11);
        assert_ne!(first, second);
        store.save("backbone", &first).unwrap();
        store.save("backbone", &second).unwrap();
        assert_eq!(store.load("backbone").unwrap(), second);
        // The temp file renamed over the target must not linger, and the
        // listing must only ever see the finished artifact.
        let stray: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| !f.ends_with(".ftspan"))
            .collect();
        assert!(stray.is_empty(), "leftover files: {stray:?}");
        assert_eq!(store.names().unwrap(), vec!["backbone"]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn invalid_names_and_missing_files_are_typed_errors() {
        let store = temp_store("errors");
        let a = artifact(3);
        for bad in ["", "../escape", "a/b", ".hidden", "nul\0byte"] {
            assert!(store.save(bad, &a).is_err(), "accepted name {bad:?}");
            assert!(store.load(bad).is_err());
        }
        assert!(matches!(
            store.load("never-saved"),
            Err(CoreError::InvalidParameter { .. })
        ));
        // A corrupt file is a typed error too, and non-.ftspan files are
        // ignored by listing.
        std::fs::write(store.dir().join("junk.ftspan"), b"not an artifact").unwrap();
        std::fs::write(store.dir().join("README.txt"), b"ignore me").unwrap();
        assert!(store.load("junk").is_err());
        assert_eq!(store.names().unwrap(), vec!["junk"]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_artifact_errors_name_the_offending_file() {
        // A corrupt artifact in a directory cold load must say *which* file
        // failed — both through load() and through load_into(), whose error
        // is what a serving startup actually sees.
        let store = temp_store("corrupt-path");
        store.save("good", &artifact(5)).unwrap();
        std::fs::write(store.dir().join("rotten.ftspan"), b"FTSPgarbage").unwrap();
        for err in [
            store.load("rotten").unwrap_err(),
            store.load_into(&mut Engine::new()).unwrap_err(),
        ] {
            let message = err.to_string();
            assert!(
                message.contains("rotten.ftspan"),
                "error does not name the corrupt file: {message}"
            );
        }
        // Artifacts loaded before the failure stay registered.
        let mut engine = Engine::new();
        assert!(store.load_into(&mut engine).is_err());
        assert_eq!(engine.names(), vec!["good"]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    fn sharded_artifact(seed: u64) -> ShardedArtifact {
        use ftspan_graph::partition::PartitionConfig;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::connected_gnp(28, 0.2, generate::WeightKind::Unit, &mut rng);
        ShardedArtifact::build(
            &g,
            &FtSpannerBuilder::new("conversion").faults(1).stretch(3.0),
            &PartitionConfig::new(2).with_seed(seed),
        )
        .unwrap()
    }

    #[test]
    fn sharded_save_load_round_trips_through_manifest_and_engine() {
        let store = temp_store("sharded");
        let sharded = sharded_artifact(21);
        store.save_sharded("mesh", &sharded).unwrap();
        store.save("flat", &artifact(22)).unwrap();
        assert_eq!(store.sharded_names().unwrap(), vec!["mesh"]);
        // The shard pieces are ordinary artifacts on disk...
        assert_eq!(
            store.names().unwrap(),
            vec!["flat", "mesh.shard0", "mesh.shard1"]
        );

        let loaded = store.load_sharded("mesh").unwrap();
        assert_eq!(loaded.shard_count(), sharded.shard_count());
        assert_eq!(loaded.assignment(), sharded.assignment());
        assert_eq!(
            loaded.cut_edges().collect::<Vec<_>>(),
            sharded.cut_edges().collect::<Vec<_>>()
        );
        assert_eq!(loaded.shards(), sharded.shards());

        // ...but a cold engine load registers the manifest name only, not
        // the pieces, and the sharded artifact serves queries.
        let mut engine = Engine::new();
        let registered = store.load_into(&mut engine).unwrap();
        assert_eq!(registered, vec!["flat", "mesh"]);
        assert_eq!(engine.names(), vec!["flat", "mesh"]);
        assert_eq!(
            engine.artifact_summary("mesh").unwrap().shards,
            Some(sharded.shard_count())
        );
        let results = engine.run_batch(&[Query::distance(
            "mesh",
            vec![NodeId::new(3)],
            NodeId::new(0),
            NodeId::new(11),
        )]);
        assert!(results[0].is_ok());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_shard_manifests_are_typed_errors_naming_the_file() {
        let store = temp_store("sharded-corrupt");
        let sharded = sharded_artifact(23);
        store.save_sharded("mesh", &sharded).unwrap();

        // Truncate the manifest: load_sharded and load_into both fail with
        // an error naming the file.
        let manifest = store.dir().join("mesh.ftshard");
        let good = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, &good[..good.len() / 2]).unwrap();
        for err in [
            store.load_sharded("mesh").unwrap_err(),
            store.load_into(&mut Engine::new()).unwrap_err(),
        ] {
            assert!(
                err.to_string().contains("mesh.ftshard"),
                "error does not name the manifest: {err}"
            );
        }

        // A manifest referencing a missing shard file is typed too.
        std::fs::write(&manifest, &good).unwrap();
        std::fs::remove_file(store.dir().join("mesh.shard1.ftspan")).unwrap();
        assert!(store
            .load_sharded("mesh")
            .unwrap_err()
            .to_string()
            .contains("mesh.shard1.ftspan"));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn unaddressable_stems_are_ignored_not_fatal() {
        // Editor temporaries and stray copies with out-of-alphabet stems
        // must not break a cold load: names() lists only what load() can
        // address, so load_into() skips them.
        let store = temp_store("stems");
        store.save("good", &artifact(4)).unwrap();
        std::fs::write(store.dir().join(".#backbone.ftspan"), b"editor temp").unwrap();
        std::fs::write(store.dir().join("my backup.ftspan"), b"stray copy").unwrap();
        std::fs::create_dir(store.dir().join("backups.ftspan")).unwrap();
        assert_eq!(store.names().unwrap(), vec!["good"]);
        let mut engine = Engine::new();
        assert_eq!(store.load_into(&mut engine).unwrap(), vec!["good"]);
        assert_eq!(engine.names(), vec!["good"]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// Promotes the stored `name` to a dynamic registration the way
    /// `ftspan_serve --dynamic` does: rebuild from the recorded recipe.
    fn promote(engine: &mut Engine, name: &str) {
        let flat = engine.artifact(name).unwrap();
        let recipe =
            crate::BuildRecipe::from_tagged_provenance(flat.algorithm(), flat.provenance())
                .unwrap();
        let dynamic = crate::DynamicArtifact::build(flat.source_graph(), recipe).unwrap();
        assert_eq!(dynamic.artifact(), &*flat);
        engine.register_dynamic(name, dynamic);
    }

    #[test]
    fn deltas_are_volatile_a_reload_serves_the_stored_base() {
        use crate::{EdgeDelta, RebuildPolicy};
        let store = temp_store("volatile");
        let base = artifact(5);
        store.save("live", &base).unwrap();
        let g = base.source_graph();
        let n = g.node_count();
        let fresh = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .find(|&(u, v)| g.find_edge(NodeId::new(u), NodeId::new(v)).is_none())
            .map(|(u, v)| EdgeDelta::Insert {
                u: NodeId::new(u),
                v: NodeId::new(v),
                weight: 1.0,
            })
            .expect("a G(16, 0.3) draw is not complete");
        let deltas = [fresh];

        let mut engine = Engine::new();
        store.load_into(&mut engine).unwrap();
        promote(&mut engine, "live");
        let report = engine
            .apply_deltas("live", &deltas, &RebuildPolicy::default())
            .unwrap();
        assert_eq!((report.version, report.last_seq), (2, 1));
        let evolved = engine.artifact("live").unwrap();
        assert_ne!(&*evolved, &base);
        // Applying deltas writes nothing next to the stored base.
        let files: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(files, vec!["live.ftspan"]);

        // A restart serves the stored base; re-sending the same batch
        // reproduces the evolved version exactly.
        let mut restarted = Engine::new();
        store.load_into(&mut restarted).unwrap();
        assert_eq!(&*restarted.artifact("live").unwrap(), &base);
        promote(&mut restarted, "live");
        assert_eq!(restarted.dynamic_artifact("live").unwrap().applied_seq(), 0);
        restarted
            .apply_deltas("live", &deltas, &RebuildPolicy::default())
            .unwrap();
        assert_eq!(restarted.artifact("live").unwrap(), evolved);
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
