//! Transaction and chain types.

/// User-visible synthetic transaction types (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TxType {
    /// Local read-only.
    Lro,
    /// Local update.
    Lu,
    /// Distributed read-only.
    Dro,
    /// Distributed update.
    Du,
}

impl TxType {
    /// All four types, in the paper's order.
    pub const ALL: [TxType; 4] = [TxType::Lro, TxType::Lu, TxType::Dro, TxType::Du];

    /// True for LU and DU.
    pub fn is_update(self) -> bool {
        matches!(self, TxType::Lu | TxType::Du)
    }

    /// True for DRO and DU.
    pub fn is_distributed(self) -> bool {
        matches!(self, TxType::Dro | TxType::Du)
    }

    /// The chain type of this transaction's coordinator part.
    pub fn coordinator_chain(self) -> ChainType {
        match self {
            TxType::Lro => ChainType::Lro,
            TxType::Lu => ChainType::Lu,
            TxType::Dro => ChainType::Droc,
            TxType::Du => ChainType::Duc,
        }
    }

    /// The chain type of this transaction's slave part (distributed types
    /// only).
    pub fn slave_chain(self) -> Option<ChainType> {
        match self {
            TxType::Dro => Some(ChainType::Dros),
            TxType::Du => Some(ChainType::Dus),
            _ => None,
        }
    }

    /// Short label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            TxType::Lro => "LRO",
            TxType::Lu => "LU",
            TxType::Dro => "DRO",
            TxType::Du => "DU",
        }
    }
}

impl std::fmt::Display for TxType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Model chain types (paper §4.2): `T = {LRO, LU, DROC, DUC, DROS, DUS}`.
///
/// A distributed transaction is decomposed into one coordinator chain at its
/// home site and one slave chain at each participating remote site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChainType {
    /// Local read-only.
    Lro,
    /// Local update.
    Lu,
    /// Distributed read-only coordinator.
    Droc,
    /// Distributed update coordinator.
    Duc,
    /// Distributed read-only slave.
    Dros,
    /// Distributed update slave.
    Dus,
}

impl ChainType {
    /// All six chain types, in the paper's order.
    pub const ALL: [ChainType; 6] = [
        ChainType::Lro,
        ChainType::Lu,
        ChainType::Droc,
        ChainType::Duc,
        ChainType::Dros,
        ChainType::Dus,
    ];

    /// True for chains that take exclusive locks (LU, DUC, DUS).
    ///
    /// This is the blocking set of paper Eq. 15: a shared request is blocked
    /// only by these chains' held locks.
    pub fn is_update(self) -> bool {
        matches!(self, ChainType::Lu | ChainType::Duc | ChainType::Dus)
    }

    /// True for DROS/DUS.
    pub fn is_slave(self) -> bool {
        matches!(self, ChainType::Dros | ChainType::Dus)
    }

    /// True for LRO/LU.
    pub fn is_local(self) -> bool {
        matches!(self, ChainType::Lro | ChainType::Lu)
    }

    /// The matching slave chain of a coordinator chain (and vice versa).
    pub fn counterpart(self) -> Option<ChainType> {
        match self {
            ChainType::Droc => Some(ChainType::Dros),
            ChainType::Duc => Some(ChainType::Dus),
            ChainType::Dros => Some(ChainType::Droc),
            ChainType::Dus => Some(ChainType::Duc),
            _ => None,
        }
    }

    /// The user transaction type this chain belongs to.
    pub fn user_type(self) -> TxType {
        match self {
            ChainType::Lro => TxType::Lro,
            ChainType::Lu => TxType::Lu,
            ChainType::Droc | ChainType::Dros => TxType::Dro,
            ChainType::Duc | ChainType::Dus => TxType::Du,
        }
    }

    /// Short label as used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            ChainType::Lro => "LRO",
            ChainType::Lu => "LU",
            ChainType::Droc => "DROC",
            ChainType::Duc => "DUC",
            ChainType::Dros => "DROS",
            ChainType::Dus => "DUS",
        }
    }
}

impl std::fmt::Display for ChainType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_and_distributed_flags() {
        assert!(!TxType::Lro.is_update());
        assert!(TxType::Lu.is_update());
        assert!(TxType::Du.is_update() && TxType::Du.is_distributed());
        assert!(TxType::Dro.is_distributed() && !TxType::Dro.is_update());
    }

    #[test]
    fn chain_decomposition() {
        assert_eq!(TxType::Dro.coordinator_chain(), ChainType::Droc);
        assert_eq!(TxType::Dro.slave_chain(), Some(ChainType::Dros));
        assert_eq!(TxType::Lu.slave_chain(), None);
        assert_eq!(ChainType::Duc.counterpart(), Some(ChainType::Dus));
        assert_eq!(ChainType::Lro.counterpart(), None);
    }

    #[test]
    fn blocking_set_matches_eq15() {
        let blockers: Vec<ChainType> = ChainType::ALL
            .into_iter()
            .filter(|c| c.is_update())
            .collect();
        assert_eq!(
            blockers,
            vec![ChainType::Lu, ChainType::Duc, ChainType::Dus]
        );
    }

    #[test]
    fn user_type_roundtrip() {
        for c in ChainType::ALL {
            let t = c.user_type();
            match c {
                ChainType::Lro | ChainType::Lu => assert_eq!(t.coordinator_chain(), c),
                ChainType::Droc | ChainType::Duc => assert_eq!(t.coordinator_chain(), c),
                _ => assert_eq!(t.slave_chain(), Some(c)),
            }
        }
    }
}
