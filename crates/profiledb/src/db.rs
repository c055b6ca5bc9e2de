//! The profile store: atomic transactions over the WAL, crash recovery,
//! and checkpointing.
//!
//! A user profile is a set of key-value customisation settings (§2.3: the
//! customisation database "maps a user identification token … to a list
//! of key-value pairs for each user of the service"). All mutation happens
//! through transactions; a transaction is durable and atomic: it is one
//! WAL record, forced to stable storage before being applied in memory.

use std::collections::BTreeMap;
use std::fmt;

use crate::wal::{LogDevice, Wal, WalError};

/// A user's customisation settings.
pub type Profile = BTreeMap<String, String>;

/// Errors from database operations.
#[derive(Debug)]
pub enum DbError {
    /// The log failed.
    Wal(WalError),
    /// A log record could not be decoded (only possible with foreign or
    /// corrupted-but-CRC-valid logs).
    Corrupt(&'static str),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Wal(e) => write!(f, "database log error: {e}"),
            DbError::Corrupt(what) => write!(f, "database log corrupt: {what}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<WalError> for DbError {
    fn from(e: WalError) -> Self {
        DbError::Wal(e)
    }
}

/// One mutation inside a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Sets `user[key] = value`.
    Put {
        /// User token.
        user: String,
        /// Setting name.
        key: String,
        /// Setting value.
        value: String,
    },
    /// Removes one setting.
    Delete {
        /// User token.
        user: String,
        /// Setting name.
        key: String,
    },
    /// Removes a whole profile.
    DeleteUser {
        /// User token.
        user: String,
    },
}

/// A transaction under construction. All ops commit atomically or not at
/// all.
#[derive(Debug, Default, Clone)]
pub struct Txn {
    ops: Vec<Op>,
}

impl Txn {
    /// Starts an empty transaction.
    pub fn new() -> Self {
        Txn::default()
    }

    /// Adds a put.
    pub fn put(
        mut self,
        user: impl Into<String>,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        self.ops.push(Op::Put {
            user: user.into(),
            key: key.into(),
            value: value.into(),
        });
        self
    }

    /// Adds a single-key delete.
    pub fn delete(mut self, user: impl Into<String>, key: impl Into<String>) -> Self {
        self.ops.push(Op::Delete {
            user: user.into(),
            key: key.into(),
        });
        self
    }

    /// Adds a whole-profile delete.
    pub fn delete_user(mut self, user: impl Into<String>) -> Self {
        self.ops.push(Op::DeleteUser { user: user.into() });
        self
    }

    /// Number of ops queued.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbStats {
    /// Transactions committed in this process lifetime.
    pub commits: u64,
    /// Transactions replayed during the last recovery.
    pub replayed: u64,
    /// Point reads served.
    pub reads: u64,
}

// ---- record encoding -------------------------------------------------
// [op_count u32] then per op: [tag u8][strings: len u32 + bytes...]

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, DbError> {
    if *pos + 4 > buf.len() {
        return Err(DbError::Corrupt("string length truncated"));
    }
    let len = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap()) as usize;
    *pos += 4;
    if *pos + len > buf.len() {
        return Err(DbError::Corrupt("string body truncated"));
    }
    let s = std::str::from_utf8(&buf[*pos..*pos + len])
        .map_err(|_| DbError::Corrupt("non-utf8 string"))?
        .to_string();
    *pos += len;
    Ok(s)
}

fn encode_txn(txn: &Txn) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(txn.ops.len() as u32).to_le_bytes());
    for op in &txn.ops {
        match op {
            Op::Put { user, key, value } => {
                buf.push(0);
                put_str(&mut buf, user);
                put_str(&mut buf, key);
                put_str(&mut buf, value);
            }
            Op::Delete { user, key } => {
                buf.push(1);
                put_str(&mut buf, user);
                put_str(&mut buf, key);
            }
            Op::DeleteUser { user } => {
                buf.push(2);
                put_str(&mut buf, user);
            }
        }
    }
    buf
}

fn decode_txn(buf: &[u8]) -> Result<Txn, DbError> {
    let mut pos = 0usize;
    if buf.len() < 4 {
        return Err(DbError::Corrupt("record too short"));
    }
    let count = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    pos += 4;
    let mut txn = Txn::new();
    for _ in 0..count {
        if pos >= buf.len() {
            return Err(DbError::Corrupt("op tag truncated"));
        }
        let tag = buf[pos];
        pos += 1;
        let op = match tag {
            0 => Op::Put {
                user: get_str(buf, &mut pos)?,
                key: get_str(buf, &mut pos)?,
                value: get_str(buf, &mut pos)?,
            },
            1 => Op::Delete {
                user: get_str(buf, &mut pos)?,
                key: get_str(buf, &mut pos)?,
            },
            2 => Op::DeleteUser {
                user: get_str(buf, &mut pos)?,
            },
            _ => return Err(DbError::Corrupt("unknown op tag")),
        };
        txn.ops.push(op);
    }
    Ok(txn)
}

/// The ACID profile database.
///
/// # Examples
///
/// ```
/// use sns_profiledb::{MemDevice, ProfileDb, Txn, Wal};
///
/// let mut db = ProfileDb::open(Wal::new(MemDevice::new())).unwrap();
/// db.commit(Txn::new().put("user1", "max_image_kb", "2")).unwrap();
/// assert_eq!(db.get("user1", "max_image_kb"), Some("2"));
/// ```
pub struct ProfileDb<D> {
    wal: Wal<D>,
    mem: BTreeMap<String, Profile>,
    stats: DbStats,
}

impl<D: LogDevice> ProfileDb<D> {
    /// Opens a database, replaying the committed prefix of the log.
    pub fn open(mut wal: Wal<D>) -> Result<Self, DbError> {
        let mut mem = BTreeMap::new();
        let mut replayed = 0;
        for record in wal.read_records()? {
            let txn = decode_txn(&record)?;
            Self::apply(&mut mem, &txn);
            replayed += 1;
        }
        Ok(ProfileDb {
            wal,
            mem,
            stats: DbStats {
                replayed,
                ..Default::default()
            },
        })
    }

    fn apply(mem: &mut BTreeMap<String, Profile>, txn: &Txn) {
        for op in &txn.ops {
            match op {
                Op::Put { user, key, value } => {
                    mem.entry(user.clone())
                        .or_default()
                        .insert(key.clone(), value.clone());
                }
                Op::Delete { user, key } => {
                    if let Some(p) = mem.get_mut(user) {
                        p.remove(key);
                        if p.is_empty() {
                            mem.remove(user);
                        }
                    }
                }
                Op::DeleteUser { user } => {
                    mem.remove(user);
                }
            }
        }
    }

    /// Commits a transaction: logged and synced before being applied.
    pub fn commit(&mut self, txn: Txn) -> Result<(), DbError> {
        if txn.is_empty() {
            return Ok(());
        }
        self.wal.append_record(&encode_txn(&txn))?;
        Self::apply(&mut self.mem, &txn);
        self.stats.commits += 1;
        Ok(())
    }

    /// Reads one setting.
    pub fn get(&mut self, user: &str, key: &str) -> Option<&str> {
        self.stats.reads += 1;
        self.mem
            .get(user)
            .and_then(|p| p.get(key))
            .map(|s| s.as_str())
    }

    /// Reads a whole profile.
    pub fn profile(&mut self, user: &str) -> Option<&Profile> {
        self.stats.reads += 1;
        self.mem.get(user)
    }

    /// Number of users with a profile.
    pub fn user_count(&self) -> usize {
        self.mem.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Checkpoints into `fresh` (snapshot as one transaction), swaps it in
    /// as the live log, and returns the old device. Callers make the swap
    /// atomic at their storage layer (e.g. file rename).
    pub fn checkpoint(&mut self, fresh: D) -> Result<D, DbError> {
        let mut snap = Txn::new();
        for (user, profile) in &self.mem {
            for (k, v) in profile {
                snap = snap.put(user.clone(), k.clone(), v.clone());
            }
        }
        let mut new_wal = Wal::new(fresh);
        if !snap.is_empty() {
            new_wal.append_record(&encode_txn(&snap))?;
        }
        let old = std::mem::replace(&mut self.wal, new_wal);
        Ok(old.into_device())
    }

    /// Direct access to the WAL device (tests crash it).
    pub fn device_mut(&mut self) -> &mut D {
        self.wal.device_mut()
    }

    /// Encodes a committed transaction for log shipping (replication).
    pub fn encode_for_shipping(txn: &Txn) -> Vec<u8> {
        encode_txn(txn)
    }

    /// Applies a shipped transaction record (backup side). The record is
    /// logged locally (durable on the backup) then applied.
    pub fn apply_shipped(&mut self, record: &[u8]) -> Result<(), DbError> {
        let txn = decode_txn(record)?;
        self.wal.append_record(record)?;
        Self::apply(&mut self.mem, &txn);
        self.stats.commits += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemDevice;

    fn fresh() -> ProfileDb<MemDevice> {
        ProfileDb::open(Wal::new(MemDevice::new())).unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut db = fresh();
        db.commit(
            Txn::new()
                .put("u1", "quality", "25")
                .put("u1", "scale", "2"),
        )
        .unwrap();
        assert_eq!(db.get("u1", "quality"), Some("25"));
        assert_eq!(db.get("u1", "scale"), Some("2"));
        assert_eq!(db.get("u1", "missing"), None);
        assert_eq!(db.get("u2", "quality"), None);
    }

    #[test]
    fn delete_ops() {
        let mut db = fresh();
        db.commit(Txn::new().put("u1", "a", "1").put("u1", "b", "2"))
            .unwrap();
        db.commit(Txn::new().delete("u1", "a")).unwrap();
        assert_eq!(db.get("u1", "a"), None);
        assert_eq!(db.get("u1", "b"), Some("2"));
        db.commit(Txn::new().delete_user("u1")).unwrap();
        assert!(db.profile("u1").is_none());
        assert_eq!(db.user_count(), 0);
    }

    #[test]
    fn recovery_replays_committed_txns() {
        let mut db = fresh();
        db.commit(Txn::new().put("u1", "k", "v1")).unwrap();
        db.commit(Txn::new().put("u2", "k", "v2")).unwrap();
        let dev = std::mem::replace(db.device_mut(), MemDevice::new());
        let mut db2 = ProfileDb::open(Wal::new(dev)).unwrap();
        assert_eq!(db2.get("u1", "k"), Some("v1"));
        assert_eq!(db2.get("u2", "k"), Some("v2"));
        assert_eq!(db2.stats().replayed, 2);
    }

    #[test]
    fn torn_write_loses_only_last_txn() {
        let mut db = fresh();
        db.commit(Txn::new().put("u1", "k", "v1")).unwrap();
        db.commit(Txn::new().put("u2", "k", "v2")).unwrap();
        let mut dev = std::mem::replace(db.device_mut(), MemDevice::new());
        dev.crash(2); // torn tail corrupts the second record
        let mut db2 = ProfileDb::open(Wal::new(dev)).unwrap();
        assert_eq!(db2.get("u1", "k"), Some("v1"), "committed prefix survives");
        assert_eq!(db2.get("u2", "k"), None, "torn record discarded");
    }

    /// Every crash point: for each byte prefix of the log, and again
    /// with the prefix's last byte flipped, reopening recovers exactly
    /// the state after the transactions wholly inside the (intact part
    /// of the) prefix — never a partial transaction, never an error.
    #[test]
    fn every_crash_point_recovers_a_committed_prefix() {
        let txns = [
            Txn::new().put("u1", "quality", "25"),
            Txn::new()
                .put("u2", "scale", "2")
                .put("u2", "format", "jpeg")
                .put("u1", "quality", "50"),
            Txn::new().delete("u1", "quality").put("u3", "k", "v"),
            Txn::new()
                .put("u4", "keywords", "cluster network services")
                .put("u4", "pda", "1"),
            Txn::new().delete_user("u2").put("u1", "scale", "4"),
        ];
        let mut db = fresh();
        // states[k] / ends[k]: the store and the log length after the
        // first k commits (each commit is one synced record).
        let mut states = vec![db.mem.clone()];
        let mut ends = vec![0];
        for txn in &txns {
            db.commit(txn.clone()).unwrap();
            states.push(db.mem.clone());
            ends.push(db.device_mut().len());
        }
        let log = db.device_mut().read_all().unwrap();
        assert_eq!(log.len(), *ends.last().unwrap());

        let recover = |bytes: &[u8]| {
            let mut dev = MemDevice::new();
            dev.append(bytes).unwrap();
            dev.sync().unwrap();
            ProfileDb::open(Wal::new(dev)).expect("recovery never errors")
        };
        for cut in 0..=log.len() {
            let whole = ends.iter().rposition(|&e| e <= cut).unwrap();
            let db = recover(&log[..cut]);
            assert_eq!(db.stats().replayed, whole as u64, "prefix {cut}");
            assert_eq!(db.mem, states[whole], "prefix {cut}");

            if cut == 0 {
                continue;
            }
            let mut torn = log[..cut].to_vec();
            torn[cut - 1] ^= 0xFF;
            // A flip inside a complete record voids that record; one in
            // a partial record changes nothing.
            let intact = if ends[whole] == cut { whole - 1 } else { whole };
            let db = recover(&torn);
            assert_eq!(db.stats().replayed, intact as u64, "flipped prefix {cut}");
            assert_eq!(db.mem, states[intact], "flipped prefix {cut}");
        }
    }

    #[test]
    fn atomicity_all_or_nothing() {
        let mut db = fresh();
        // One multi-op transaction; after a clean crash either all three
        // ops are visible or none.
        db.commit(
            Txn::new()
                .put("u", "a", "1")
                .put("u", "b", "2")
                .put("u", "c", "3"),
        )
        .unwrap();
        let dev = std::mem::replace(db.device_mut(), MemDevice::new());
        let mut db2 = ProfileDb::open(Wal::new(dev)).unwrap();
        let p = db2.profile("u").unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let mut db = fresh();
        for i in 0..50 {
            db.commit(Txn::new().put("u", format!("k{i}"), format!("v{i}")))
                .unwrap();
        }
        db.commit(Txn::new().delete("u", "k0")).unwrap();
        let _old = db.checkpoint(MemDevice::new()).unwrap();
        // Recover from the checkpointed log only.
        let dev = std::mem::replace(db.device_mut(), MemDevice::new());
        let mut db2 = ProfileDb::open(Wal::new(dev)).unwrap();
        assert_eq!(db2.stats().replayed, 1, "one snapshot record");
        assert_eq!(db2.get("u", "k0"), None);
        assert_eq!(db2.get("u", "k49"), Some("v49"));
        assert_eq!(db2.profile("u").unwrap().len(), 49);
    }

    #[test]
    fn empty_txn_is_noop() {
        let mut db = fresh();
        db.commit(Txn::new()).unwrap();
        assert_eq!(db.stats().commits, 0);
    }

    #[test]
    fn shipping_roundtrip() {
        let mut primary = fresh();
        let mut backup = fresh();
        let txn = Txn::new().put("u", "k", "v");
        primary.commit(txn.clone()).unwrap();
        let record = ProfileDb::<MemDevice>::encode_for_shipping(&txn);
        backup.apply_shipped(&record).unwrap();
        assert_eq!(backup.get("u", "k"), Some("v"));
    }

    #[test]
    fn file_backed_db_survives_reopen() {
        use crate::wal::FileDevice;
        let dir = std::env::temp_dir().join(format!("snsdb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profiles.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut db = ProfileDb::open(Wal::new(FileDevice::open(&path).unwrap())).unwrap();
            db.commit(Txn::new().put("u1", "quality", "25")).unwrap();
            db.commit(Txn::new().put("u2", "device", "palm")).unwrap();
        }
        {
            let mut db = ProfileDb::open(Wal::new(FileDevice::open(&path).unwrap())).unwrap();
            assert_eq!(db.get("u1", "quality"), Some("25"));
            assert_eq!(db.get("u2", "device"), Some("palm"));
            assert_eq!(db.stats().replayed, 2);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn encode_decode_property_smoke() {
        let txn = Txn::new()
            .put("αβγ", "ключ", "数值")
            .delete("u", "")
            .delete_user("x");
        let enc = encode_txn(&txn);
        let dec = decode_txn(&enc).unwrap();
        assert_eq!(dec.ops, txn.ops);
    }
}
