//! The inverted fragment index (Figure 6 of the paper), columnar.
//!
//! Structurally a conventional inverted file with *fragment handles* in
//! place of URLs: for each keyword, the fragments containing it with
//! their occurrence counts, sorted by descending TF. `IDF_w` is
//! approximated as `1 / |L_w|` — the inverse of the number of fragments
//! containing `w` (Section VI).
//!
//! Storage is two arenas sharing one offset table, indexed by interned
//! [`Kw`] handles. A keyword's list lies in one slot, a run of arena
//! positions, at the same place in both arenas:
//!
//! * `tf_arena` — the list sorted by descending TF, ties by fragment
//!   identifier (the order the top-k seeding cursor walks);
//! * `probe_arena` — the same postings sorted by fragment handle, so
//!   the occurrence of *any* fragment (an expansion neighbor) is one
//!   binary search away.
//!
//! [`InvertedFragmentIndex::build`] lays the lists out in handle order,
//! one keyword after the next, each filling its slot. Maintenance then
//! moves them: a delta rewrites only the lists it touches, a list that
//! fits its slot in place (a list that shrank keeps its slot, so it can
//! grow back in place), a list that outgrew its slot at the end of both
//! arenas. Slots holding no live posting — the unused tail of a slot,
//! or a whole slot its list left — are *dead*. Invariant: after every
//! delta the arenas hold at most two slots per live posting; once dead
//! slots exceed half of them, the arenas are compacted back to handle
//! order. So memory stays within twice the live postings, and a
//! compaction copies fewer postings than the dead slots it reclaims,
//! which amortizes it to O(1) per slot the deltas killed. Readers go
//! through the offset table and never see a dead slot, and arena
//! images are written in the compacted layout, so neither the on-disk
//! format nor a replication snapshot ever carries one.
//!
//! Posting lists never allocate per entry; building sorts each
//! keyword's slice independently (parallelized across lists).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use crate::fragment::Fragment;
use crate::index::catalog::{Frag, FragmentCatalog, Kw};
use crate::par;

/// One entry of a TF-sorted inverted list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// The fragment containing the keyword.
    pub frag: Frag,
    /// Raw occurrence count of the keyword in the fragment.
    pub occurrences: u64,
    /// Term frequency (occurrences / fragment keyword total),
    /// precomputed so the hot seeding loop never divides or chases the
    /// catalog.
    pub tf: f64,
}

/// One entry of a fragment-sorted probe list. Crate-visible so the
/// arena-image loader (`persist` v2) can decode its column bytes
/// straight into the final arena, no intermediate tuple vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProbeEntry {
    pub(crate) frag: Frag,
    pub(crate) occurrences: u64,
}

/// The keyword interner: keyword string ⇄ dense [`Kw`] handle.
#[derive(Debug, Clone, Default)]
pub struct KeywordInterner {
    words: Vec<String>,
    lookup: HashMap<String, Kw>,
}

impl KeywordInterner {
    /// Interns `word`, returning its stable handle.
    pub fn intern(&mut self, word: &str) -> Kw {
        if let Some(&kw) = self.lookup.get(word) {
            return kw;
        }
        let kw = Kw(u32::try_from(self.words.len()).expect("more than u32::MAX keywords"));
        self.words.push(word.to_string());
        self.lookup.insert(word.to_string(), kw);
        kw
    }

    /// The handle of `word`, if interned.
    #[inline]
    pub fn kw(&self, word: &str) -> Option<Kw> {
        self.lookup.get(word).copied()
    }

    /// The keyword behind a handle.
    #[inline]
    pub fn word(&self, kw: Kw) -> &str {
        &self.words[kw.index()]
    }

    /// Number of interned keywords (including ones whose lists emptied).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The interned words in handle order — the arena-image dump view.
    /// The `lookup` map is derived state and not part of the image.
    pub(crate) fn image_words(&self) -> &[String] {
        &self.words
    }

    /// Reassembles an interner from dumped words, re-deriving the
    /// word→handle map in one O(n) pass — the arena-image load path.
    pub(crate) fn from_image_words(words: Vec<String>) -> Self {
        let lookup = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), Kw(i as u32)))
            .collect();
        KeywordInterner { words, lookup }
    }
}

/// The most arena slots, live and dead, the index keeps per live
/// posting: [`InvertedFragmentIndex::apply_delta`] compacts the arenas
/// as soon as a delta leaves more.
const MAX_SLOTS_PER_POSTING: usize = 2;

/// Per-keyword slice bounds, shared by both arenas: the list's `len`
/// postings fill the front of a slot of `cap` slots at `start`.
#[derive(Debug, Clone, Copy, Default)]
struct ListRef {
    start: u32,
    len: u32,
    cap: u32,
}

impl ListRef {
    /// A list filling its whole slot.
    fn packed(start: u32, len: u32) -> Self {
        ListRef {
            start,
            len,
            cap: len,
        }
    }

    #[inline]
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The inverted half of the fragment index. A clone is compacted (see
/// the module docs): copying only the live postings costs no more than
/// copying the arenas, and the copy starts with no dead slot.
#[derive(Debug, Default)]
pub struct InvertedFragmentIndex {
    interner: KeywordInterner,
    lists: Vec<ListRef>,
    tf_arena: Vec<Posting>,
    probe_arena: Vec<ProbeEntry>,
    fragment_count: u64,
}

impl InvertedFragmentIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index from materialized fragments; every fragment must
    /// already be interned in `catalog`.
    pub fn build(catalog: &FragmentCatalog, fragments: &[Fragment]) -> Self {
        let refs: Vec<&Fragment> = fragments.iter().collect();
        Self::build_refs(catalog, &refs)
    }

    /// [`InvertedFragmentIndex::build`] over borrowed fragments — the
    /// zero-copy path shard construction uses.
    pub fn build_refs(catalog: &FragmentCatalog, fragments: &[&Fragment]) -> Self {
        let mut interner = KeywordInterner::default();
        // Pass 1: intern keywords, count list lengths.
        let mut counts: Vec<u32> = Vec::new();
        for f in fragments {
            for word in f.keyword_occurrences.keys() {
                let kw = interner.intern(word);
                if kw.index() == counts.len() {
                    counts.push(0);
                }
                counts[kw.index()] += 1;
            }
        }
        // Offsets: one prefix sum shared by both arenas.
        let mut lists = Vec::with_capacity(counts.len());
        let mut total = 0u32;
        for &len in &counts {
            lists.push(ListRef::packed(total, len));
            total += len;
        }
        // Pass 2: place postings keyword-major. When fragments arrive
        // in ascending handle order (the common case: a crawl interned
        // in identifier order) each probe slice comes out sorted by
        // fragment already; out-of-order input is detected and the
        // affected slices re-sorted, since the occurrence probe binary
        // searches them.
        let mut probe_arena = vec![
            ProbeEntry {
                frag: Frag(0),
                occurrences: 0
            };
            total as usize
        ];
        let mut cursors: Vec<u32> = lists.iter().map(|l| l.start).collect();
        let mut monotone = true;
        let mut prev = None;
        for f in fragments {
            let frag = catalog.frag(&f.id).expect("fragment interned in catalog");
            monotone &= prev.is_none_or(|p| p < frag);
            prev = Some(frag);
            for (word, &occurrences) in &f.keyword_occurrences {
                let kw = interner.kw(word).expect("interned in pass 1");
                let at = cursors[kw.index()];
                probe_arena[at as usize] = ProbeEntry { frag, occurrences };
                cursors[kw.index()] = at + 1;
            }
        }
        if !monotone {
            for list in &lists {
                probe_arena[list.range()].sort_unstable_by_key(|e| e.frag);
            }
        }
        let mut index = InvertedFragmentIndex {
            interner,
            lists,
            tf_arena: Vec::new(),
            probe_arena,
            fragment_count: fragments.len() as u64,
        };
        index.rebuild_tf_arena(catalog);
        index
    }

    /// Derives the TF-sorted arena from the probe arena, sorting every
    /// keyword's slice independently (in parallel). Build only: it
    /// assumes the compact layout `build` produces, where the lists
    /// follow one another in handle order.
    fn rebuild_tf_arena(&mut self, catalog: &FragmentCatalog) {
        self.tf_arena = self
            .probe_arena
            .iter()
            .map(|p| Posting {
                frag: p.frag,
                occurrences: p.occurrences,
                tf: tf_of(catalog, p.frag, p.occurrences),
            })
            .collect();
        // Carve the arena into per-keyword slices and sort each.
        let mut slices: Vec<&mut [Posting]> = Vec::with_capacity(self.lists.len());
        let mut rest: &mut [Posting] = &mut self.tf_arena;
        for list in &self.lists {
            let (head, tail) = rest.split_at_mut(list.len as usize);
            slices.push(head);
            rest = tail;
        }
        par::for_each(slices, |slice| {
            slice.sort_unstable_by(|a, b| tf_order(catalog, a, b));
        });
    }

    /// The TF-sorted inverted list for `word` (`None` when no fragment
    /// has it).
    #[inline]
    pub fn postings(&self, word: &str) -> Option<&[Posting]> {
        let list = self.interner.kw(word).map(|kw| self.lists[kw.index()])?;
        if list.len == 0 {
            return None;
        }
        Some(&self.tf_arena[list.range()])
    }

    /// The TF-sorted inverted list for an interned keyword.
    #[inline]
    pub fn postings_kw(&self, kw: Kw) -> &[Posting] {
        &self.tf_arena[self.lists[kw.index()].range()]
    }

    /// The inverted list of an interned keyword as `(fragment,
    /// occurrences)` pairs in fragment-handle order — the view the
    /// occurrence probe binary searches.
    pub fn probe_kw(&self, kw: Kw) -> impl ExactSizeIterator<Item = (Frag, u64)> + '_ {
        self.probe_arena[self.lists[kw.index()].range()]
            .iter()
            .map(|e| (e.frag, e.occurrences))
    }

    /// The handle of `word`, if any fragment contains it.
    #[inline]
    pub fn kw(&self, word: &str) -> Option<Kw> {
        let kw = self.interner.kw(word)?;
        if self.lists[kw.index()].len == 0 {
            return None;
        }
        Some(kw)
    }

    /// The keyword behind a handle.
    pub fn word(&self, kw: Kw) -> &str {
        self.interner.word(kw)
    }

    /// Occurrences of keyword `kw` in fragment `frag` — the O(log L)
    /// probe the top-k search uses for expansion neighbors (replaces
    /// the seed's clone-per-call `occurrences_of` map API).
    #[inline]
    pub fn occurrences(&self, kw: Kw, frag: Frag) -> u64 {
        let slice = &self.probe_arena[self.lists[kw.index()].range()];
        match slice.binary_search_by(|e| e.frag.cmp(&frag)) {
            Ok(i) => slice[i].occurrences,
            Err(_) => 0,
        }
    }

    /// Fragment frequency of `word` (`|L_w|`).
    pub fn df(&self, word: &str) -> usize {
        self.interner
            .kw(word)
            .map_or(0, |kw| self.lists[kw.index()].len as usize)
    }

    /// Fragment frequency of an interned keyword.
    #[inline]
    pub fn df_kw(&self, kw: Kw) -> usize {
        self.lists[kw.index()].len as usize
    }

    /// `IDF_w = 1 / |L_w|` — Dash's fragment-based IDF approximation.
    pub fn idf(&self, word: &str) -> f64 {
        match self.df(word) {
            0 => 0.0,
            n => 1.0 / n as f64,
        }
    }

    /// IDF of an interned keyword.
    #[inline]
    pub fn idf_kw(&self, kw: Kw) -> f64 {
        match self.df_kw(kw) {
            0 => 0.0,
            n => 1.0 / n as f64,
        }
    }

    /// Number of indexed fragments.
    pub fn fragment_count(&self) -> u64 {
        self.fragment_count
    }

    /// Number of distinct keywords with a non-empty list.
    pub fn keyword_count(&self) -> usize {
        self.lists.iter().filter(|l| l.len > 0).count()
    }

    /// Keywords by descending fragment frequency (for hot/warm/cold
    /// keyword selection in the evaluation).
    pub fn keywords_by_df(&self) -> Vec<(&str, usize)> {
        let mut out: Vec<(&str, usize)> = self
            .lists
            .iter()
            .enumerate()
            .filter(|(_, l)| l.len > 0)
            .map(|(i, l)| (self.interner.word(Kw(i as u32)), l.len as usize))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        out
    }

    /// Applies one batched mutation — every posting splice of an
    /// [`IndexDelta`](crate::update::IndexDelta) — touching only the
    /// lists the delta touches: the lists of every added keyword, plus
    /// every list holding a posting of a removed or re-added fragment.
    /// Each touched list is rebuilt by two linear merges (the survivors
    /// of its probe slice in fragment order, of its TF slice in TF
    /// order, each merged with the additions) and written back in place
    /// if it fits its slot, at the end of the arenas if not; the
    /// arenas are compacted once dead slots exceed half of them (see
    /// the module docs). The cost is O(postings of the touched lists)
    /// plus one probe per list to find them — never a rewrite or
    /// re-sort of the whole index. The result is identical to a fresh
    /// build: TF depends only on a posting's own fragment, so untouched
    /// entries keep their order, and the TF order is total.
    ///
    /// A delta that touches no list (e.g. removing an already
    /// tombstoned handle) writes nothing. Every added fragment must
    /// already be interned in `catalog`. Returns the number of postings
    /// removed on behalf of `removes`; a re-added fragment's old
    /// postings are superseded, not counted.
    pub fn apply_delta(
        &mut self,
        catalog: &FragmentCatalog,
        removes: &[Frag],
        adds: &[&Fragment],
    ) -> usize {
        // Additions per keyword, interning new keywords so `lists`
        // covers them.
        let mut replacing: Vec<Frag> = Vec::with_capacity(adds.len());
        let mut additions: BTreeMap<Kw, Vec<ProbeEntry>> = BTreeMap::new();
        for fragment in adds {
            let frag = catalog.frag(&fragment.id).expect("fragment interned");
            replacing.push(frag);
            for (word, &occurrences) in &fragment.keyword_occurrences {
                let kw = self.interner.intern(word);
                if kw.index() == self.lists.len() {
                    self.lists.push(ListRef::default());
                }
                additions
                    .entry(kw)
                    .or_default()
                    .push(ProbeEntry { frag, occurrences });
            }
        }
        let replacing = sorted_set(replacing);
        let gone = sorted_set([removes, replacing.as_slice()].concat());

        // One pass over the offset table finds every touched list.
        let mut added_kws = additions.keys().copied().peekable();
        let touched: Vec<Kw> = (0..self.lists.len())
            .map(|i| Kw(i as u32))
            .filter(|&kw| {
                added_kws.next_if_eq(&kw).is_some()
                    || holds_any(&self.probe_arena[self.lists[kw.index()].range()], &gone)
            })
            .collect();

        let mut removed_postings = 0;
        let mut probe: Vec<ProbeEntry> = Vec::new();
        let mut tf: Vec<Posting> = Vec::new();
        let mut fresh: Vec<Posting> = Vec::new();
        for kw in touched {
            let mut added = additions.remove(&kw).unwrap_or_default();
            added.sort_unstable_by_key(|e| e.frag);
            let list = self.lists[kw.index()];
            // Probe slice: survivors in fragment order, merged with the
            // additions.
            probe.clear();
            let mut pending = added.iter().copied().peekable();
            for &entry in &self.probe_arena[list.range()] {
                if gone.binary_search(&entry.frag).is_ok() {
                    removed_postings += usize::from(replacing.binary_search(&entry.frag).is_err());
                    continue;
                }
                while let Some(a) = pending.next_if(|a| a.frag < entry.frag) {
                    probe.push(a);
                }
                probe.push(entry);
            }
            probe.extend(pending);
            // TF slice: survivors in their existing order, merged with
            // the additions under the build's comparator.
            fresh.clear();
            fresh.extend(added.iter().map(|e| Posting {
                frag: e.frag,
                occurrences: e.occurrences,
                tf: tf_of(catalog, e.frag, e.occurrences),
            }));
            fresh.sort_unstable_by(|a, b| tf_order(catalog, a, b));
            tf.clear();
            let mut pending = fresh.iter().copied().peekable();
            for &posting in &self.tf_arena[list.range()] {
                if gone.binary_search(&posting.frag).is_ok() {
                    continue;
                }
                while let Some(a) =
                    pending.next_if(|a| tf_order(catalog, a, &posting) == Ordering::Less)
                {
                    tf.push(a);
                }
                tf.push(posting);
            }
            tf.extend(pending);
            self.place(kw, &probe, &tf);
        }
        if self.tf_arena.len() > MAX_SLOTS_PER_POSTING * self.posting_count() {
            self.compact();
        }
        removed_postings
    }

    /// Writes `kw`'s rebuilt slices back: in place when the list fits
    /// its slot (the slot's unused tail is dead), at the end of both
    /// arenas in a new slot of its exact length when it outgrew it (the
    /// whole old slot goes dead).
    fn place(&mut self, kw: Kw, probe: &[ProbeEntry], tf: &[Posting]) {
        let list = &mut self.lists[kw.index()];
        let len = probe.len();
        if len > list.cap as usize {
            let start = u32::try_from(self.tf_arena.len()).expect("arena beyond u32 slots");
            *list = ListRef::packed(start, len as u32);
            self.probe_arena.extend_from_slice(probe);
            self.tf_arena.extend_from_slice(tf);
        } else {
            let at = list.start as usize;
            self.probe_arena[at..at + len].copy_from_slice(probe);
            self.tf_arena[at..at + len].copy_from_slice(tf);
        }
        list.len = len as u32;
    }

    /// Whether the arenas have the layout `build` produces: no dead
    /// slot, every list right after its predecessor in handle order.
    fn is_compact(&self) -> bool {
        self.tf_arena.len() == self.posting_count()
            && self
                .image_lists()
                .zip(&self.lists)
                .all(|((start, len), l)| len == 0 || start == l.start)
    }

    /// Drops the dead slots: every list moves back into fresh arenas
    /// in handle order — the layout `build` produces.
    fn compact(&mut self) {
        (self.lists, self.tf_arena, self.probe_arena) = self.compacted();
    }

    /// The offset table and both arenas in the compacted layout.
    fn compacted(&self) -> (Vec<ListRef>, Vec<Posting>, Vec<ProbeEntry>) {
        let live = self.posting_count();
        let mut lists = Vec::with_capacity(self.lists.len());
        let mut tf_arena = Vec::with_capacity(live);
        let mut probe_arena = Vec::with_capacity(live);
        for &list in &self.lists {
            lists.push(ListRef::packed(tf_arena.len() as u32, list.len));
            tf_arena.extend_from_slice(&self.tf_arena[list.range()]);
            probe_arena.extend_from_slice(&self.probe_arena[list.range()]);
        }
        (lists, tf_arena, probe_arena)
    }

    /// Removes every posting of `frag` (incremental maintenance).
    /// Returns the number of inverted lists touched.
    pub fn remove_fragment(&mut self, catalog: &FragmentCatalog, frag: Frag) -> usize {
        self.apply_delta(catalog, &[frag], &[])
    }

    /// Adds the postings of a single fragment (incremental maintenance),
    /// replacing any live postings it already had. The fragment must
    /// already be interned in `catalog`.
    pub fn add_fragment(&mut self, catalog: &FragmentCatalog, fragment: &Fragment) {
        self.apply_delta(catalog, &[], &[fragment]);
        self.fragment_count += 1;
    }

    /// The keyword-occurrence maps of **every** live fragment,
    /// reconstructed in one pass over the live lists — O(total
    /// postings). This is the dump path of per-shard persistence: the
    /// index stores no fragment-major copy of the occurrence maps, so
    /// a shard's fragments are re-derived keyword-major (probing
    /// per-fragment instead would cost O(fragments × keywords log L)).
    pub fn all_fragment_terms(&self) -> HashMap<Frag, BTreeMap<String, u64>> {
        let mut terms: HashMap<Frag, BTreeMap<String, u64>> = HashMap::new();
        for (i, list) in self.lists.iter().enumerate() {
            if list.len == 0 {
                continue;
            }
            let word = self.interner.word(Kw(i as u32));
            for entry in &self.probe_arena[list.range()] {
                terms
                    .entry(entry.frag)
                    .or_default()
                    .insert(word.to_string(), entry.occurrences);
            }
        }
        terms
    }

    /// The live keywords of **one** fragment, with occurrence counts —
    /// one binary search per inverted list, O(keywords · log L). The
    /// serving layer uses this to widen a delta's invalidation
    /// signature with the terms a removed fragment is about to take out
    /// of the index (for whole-index dumps use
    /// [`InvertedFragmentIndex::all_fragment_terms`], which amortizes
    /// the arena walk across every fragment at once).
    pub fn fragment_terms(&self, frag: Frag) -> Vec<(&str, u64)> {
        let mut terms = Vec::new();
        for (i, list) in self.lists.iter().enumerate() {
            if list.len == 0 {
                continue;
            }
            let slice = &self.probe_arena[list.range()];
            if let Ok(at) = slice.binary_search_by(|e| e.frag.cmp(&frag)) {
                terms.push((self.interner.word(Kw(i as u32)), slice[at].occurrences));
            }
        }
        terms
    }

    /// Adjusts the stored fragment count (used by incremental
    /// maintenance after removals).
    pub fn set_fragment_count(&mut self, count: u64) {
        self.fragment_count = count;
    }

    /// Total live postings across every inverted list.
    pub fn posting_count(&self) -> usize {
        self.lists.iter().map(|l| l.len as usize).sum()
    }

    /// Slots each arena occupies, live and dead — at most twice
    /// [`InvertedFragmentIndex::posting_count`].
    pub fn arena_slots(&self) -> usize {
        self.tf_arena.len()
    }

    /// The per-keyword slice bounds as `(start, len)` pairs in handle
    /// order — the arena-image dump view of the shared offset table.
    /// Starts are those of the compacted layout (the lists back to
    /// back in handle order), whatever the in-memory placement, so an
    /// image never carries a dead slot.
    pub(crate) fn image_lists(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
        let mut start = 0;
        self.lists.iter().map(move |l| {
            let at = start;
            start += l.len;
            (at, l.len)
        })
    }

    /// The TF-sorted lists in the compacted layout of `image_lists`:
    /// the arena itself when it has that layout already (a fresh build
    /// or load), else a compacted copy.
    pub(crate) fn image_tf_arena(&self) -> Cow<'_, [Posting]> {
        if self.is_compact() {
            Cow::Borrowed(&self.tf_arena)
        } else {
            let mut arena = Vec::with_capacity(self.posting_count());
            for list in &self.lists {
                arena.extend_from_slice(&self.tf_arena[list.range()]);
            }
            Cow::Owned(arena)
        }
    }

    /// The fragment-sorted lists as `(frag, occurrences)` pairs, in
    /// the compacted layout of `image_lists`.
    pub(crate) fn image_probe(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.lists
            .iter()
            .flat_map(|l| &self.probe_arena[l.range()])
            .map(|e| (e.frag.0, e.occurrences))
    }

    /// The interner behind the index (arena-image dump view).
    pub(crate) fn image_interner(&self) -> &KeywordInterner {
        &self.interner
    }

    /// Reassembles an index from dumped arenas without re-sorting a
    /// single list — the arena-image load path. Callers are expected to
    /// hand back exactly what [`InvertedFragmentIndex::image_lists`] /
    /// `image_tf_arena` / `image_probe` produced (the checksummed v2
    /// persist sections), so both arenas arrive already in their final
    /// sort orders.
    pub(crate) fn from_image_parts(
        interner: KeywordInterner,
        lists: Vec<(u32, u32)>,
        tf_arena: Vec<Posting>,
        probe_arena: Vec<ProbeEntry>,
        fragment_count: u64,
    ) -> Self {
        InvertedFragmentIndex {
            interner,
            lists: lists
                .into_iter()
                .map(|(start, len)| ListRef::packed(start, len))
                .collect(),
            tf_arena,
            probe_arena,
            fragment_count,
        }
    }
}

impl Clone for InvertedFragmentIndex {
    fn clone(&self) -> Self {
        let (lists, tf_arena, probe_arena) = self.compacted();
        InvertedFragmentIndex {
            interner: self.interner.clone(),
            lists,
            tf_arena,
            probe_arena,
            fragment_count: self.fragment_count,
        }
    }
}

/// The TF-arena order: descending TF, ties by ascending fragment
/// identifier — a total order, so a list's layout is independent of
/// insertion order.
fn tf_order(catalog: &FragmentCatalog, a: &Posting, b: &Posting) -> Ordering {
    b.tf.partial_cmp(&a.tf)
        .expect("finite TF")
        .then_with(|| catalog.cmp_ids(a.frag, b.frag))
}

/// Sorts and dedups `frags` for binary-search membership tests.
fn sorted_set(mut frags: Vec<Frag>) -> Vec<Frag> {
    frags.sort_unstable();
    frags.dedup();
    frags
}

/// Whether a fragment-sorted probe slice holds any of the sorted
/// `frags`, binary searching the longer side from the shorter one.
fn holds_any(slice: &[ProbeEntry], frags: &[Frag]) -> bool {
    if frags.len() <= slice.len() {
        frags
            .iter()
            .any(|f| slice.binary_search_by(|e| e.frag.cmp(f)).is_ok())
    } else {
        slice.iter().any(|e| frags.binary_search(&e.frag).is_ok())
    }
}

#[inline]
fn tf_of(catalog: &FragmentCatalog, frag: Frag, occurrences: u64) -> f64 {
    let total = catalog.total_keywords(frag);
    if total == 0 {
        0.0
    } else {
        occurrences as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentId;
    use dash_relation::Value;
    use std::collections::BTreeMap;

    fn fragment(id: &[Value], words: &[(&str, u64)]) -> Fragment {
        let occ: BTreeMap<String, u64> = words.iter().map(|(w, n)| (w.to_string(), *n)).collect();
        Fragment::new(FragmentId::new(id.to_vec()), occ, 1)
    }

    /// The paper's Figure 6 sample: burger appears in (American,10) ×2,
    /// (American,12) ×1, (Thai,10) ×1.
    fn figure_6_fragments() -> Vec<Fragment> {
        vec![
            fragment(
                &[Value::str("American"), Value::Int(9)],
                &[("coffee", 1), ("nice", 1), ("cafe", 1)],
            ),
            fragment(
                &[Value::str("American"), Value::Int(10)],
                &[("burger", 2), ("queen", 1), ("experts", 1)],
            ),
            fragment(
                &[Value::str("American"), Value::Int(12)],
                &[("burger", 1), ("fries", 1), ("unique", 1), ("bad", 1)],
            ),
            fragment(
                &[Value::str("Thai"), Value::Int(10)],
                &[("burger", 1), ("thai", 1)],
            ),
        ]
    }

    fn build() -> (FragmentCatalog, InvertedFragmentIndex) {
        let fragments = figure_6_fragments();
        let catalog = FragmentCatalog::from_fragments(&fragments);
        let index = InvertedFragmentIndex::build(&catalog, &fragments);
        (catalog, index)
    }

    #[test]
    fn df_and_idf_match_figure_6() {
        let (_, idx) = build();
        assert_eq!(idx.df("burger"), 3);
        assert!((idx.idf("burger") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(idx.df("coffee"), 1);
        assert_eq!(idx.df("fries"), 1);
        assert_eq!(idx.fragment_count(), 4);
        assert_eq!(idx.posting_count(), 12);
    }

    #[test]
    fn postings_tf_sorted() {
        let (catalog, idx) = build();
        let burger = idx.postings("burger").unwrap();
        // (American,10) has TF 2/4 here — the highest.
        assert_eq!(
            catalog.id(burger[0].frag),
            &FragmentId::new(vec![Value::str("American"), Value::Int(10)])
        );
        assert!(burger[0].tf >= burger[1].tf);
        assert!(burger[1].tf >= burger[2].tf);
    }

    #[test]
    fn probe_finds_arbitrary_fragments() {
        let (catalog, idx) = build();
        let kw = idx.kw("burger").unwrap();
        let ten = catalog
            .frag(&FragmentId::new(vec![
                Value::str("American"),
                Value::Int(10),
            ]))
            .unwrap();
        let nine = catalog
            .frag(&FragmentId::new(vec![
                Value::str("American"),
                Value::Int(9),
            ]))
            .unwrap();
        assert_eq!(idx.occurrences(kw, ten), 2);
        assert_eq!(idx.occurrences(kw, nine), 0);
        assert_eq!(idx.kw("zzz"), None);
    }

    #[test]
    fn incremental_remove_and_add() {
        let fragments = figure_6_fragments();
        let catalog = FragmentCatalog::from_fragments(&fragments);
        let mut idx = InvertedFragmentIndex::build(&catalog, &fragments);
        let target = catalog
            .frag(&FragmentId::new(vec![
                Value::str("American"),
                Value::Int(10),
            ]))
            .unwrap();
        let touched = idx.remove_fragment(&catalog, target);
        assert_eq!(touched, 3); // burger, queen, experts
        assert_eq!(idx.df("burger"), 2);
        assert_eq!(idx.postings("queen"), None);
        idx.add_fragment(&catalog, &fragments[1]);
        assert_eq!(idx.df("burger"), 3);
        let kw = idx.kw("burger").unwrap();
        assert_eq!(idx.occurrences(kw, target), 2);
    }

    #[test]
    fn maintenance_converges_to_bulk_layout() {
        let fragments = figure_6_fragments();
        let catalog = FragmentCatalog::from_fragments(&fragments);
        let bulk = InvertedFragmentIndex::build(&catalog, &fragments);
        let mut incremental = InvertedFragmentIndex::build(&catalog, &fragments);
        let target = catalog
            .frag(&FragmentId::new(vec![
                Value::str("American"),
                Value::Int(10),
            ]))
            .unwrap();
        incremental.remove_fragment(&catalog, target);
        incremental.set_fragment_count(3);
        incremental.add_fragment(&catalog, &fragments[1]);
        for word in ["burger", "coffee", "queen", "thai", "fries"] {
            assert_eq!(bulk.postings(word), incremental.postings(word), "{word}");
        }
        assert_eq!(bulk.fragment_count(), incremental.fragment_count());
    }

    #[test]
    fn build_tolerates_out_of_order_fragments() {
        // The catalog interned one order; the build slice iterates
        // another. Probe slices must still binary-search correctly.
        let fragments = figure_6_fragments();
        let catalog = FragmentCatalog::from_fragments(&fragments);
        let mut reordered = fragments.clone();
        reordered.reverse();
        let idx = InvertedFragmentIndex::build(&catalog, &reordered);
        let kw = idx.kw("burger").unwrap();
        for f in &fragments {
            let frag = catalog.frag(&f.id).unwrap();
            assert_eq!(
                idx.occurrences(kw, frag),
                f.occurrences("burger"),
                "probe for {}",
                f.id
            );
        }
        let sorted = InvertedFragmentIndex::build(&catalog, &fragments);
        for word in ["burger", "coffee", "thai"] {
            assert_eq!(idx.postings(word), sorted.postings(word), "{word}");
        }
    }

    #[test]
    fn grown_lists_relocate_and_compaction_restores_build_layout() {
        let fragments = figure_6_fragments();
        let mut catalog = FragmentCatalog::from_fragments(&fragments);
        let mut idx = InvertedFragmentIndex::build(&catalog, &fragments);
        // (American,9) gains "burger": that list grows, moves to the
        // arena's end, and leaves its three old slots dead.
        let grown = fragment(
            &[Value::str("American"), Value::Int(9)],
            &[("coffee", 1), ("nice", 1), ("cafe", 1), ("burger", 4)],
        );
        catalog.intern(&grown);
        idx.apply_delta(&catalog, &[], &[&grown]);
        assert_eq!(idx.posting_count(), 13);
        assert_eq!(idx.arena_slots(), 16);
        let mut current = fragments.clone();
        current[0] = grown;
        let rebuilt = InvertedFragmentIndex::build(&catalog, &current);
        assert_eq!(idx.postings("burger"), rebuilt.postings("burger"));
        // A clone is compacted, and the image of the original is the
        // clone's arenas as they lie in memory.
        let copy = idx.clone();
        assert_eq!(copy.arena_slots(), 13);
        assert_eq!(&*idx.image_tf_arena(), copy.tf_arena.as_slice());
        assert_eq!(
            idx.image_probe().collect::<Vec<_>>(),
            copy.probe_arena
                .iter()
                .map(|e| (e.frag.0, e.occurrences))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            idx.image_lists().collect::<Vec<_>>(),
            copy.lists
                .iter()
                .map(|l| (l.start, l.len))
                .collect::<Vec<_>>()
        );
        // A list that shrank keeps its slot, so growing back stays in
        // place: removing and re-adding (American,10) adds no slot.
        let ten = catalog.frag(&current[1].id).unwrap();
        assert_eq!(idx.apply_delta(&catalog, &[ten], &[]), 3);
        idx.apply_delta(&catalog, &[], &[&current[1]]);
        assert_eq!(idx.arena_slots(), 16);
        assert_eq!(idx.postings("burger"), rebuilt.postings("burger"));
        // Removing three fragments leaves 4 live postings in 16 slots:
        // past the threshold, so the arenas compact.
        let gone: Vec<Frag> = current[1..]
            .iter()
            .map(|f| catalog.frag(&f.id).unwrap())
            .collect();
        assert_eq!(idx.apply_delta(&catalog, &gone, &[]), 9);
        assert_eq!(idx.posting_count(), 4);
        assert_eq!(idx.arena_slots(), 4);
        assert_eq!(idx.postings("burger").map(<[Posting]>::len), Some(1));
    }

    #[test]
    fn keywords_by_df_ranks_hot_first() {
        let (_, idx) = build();
        let ranked = idx.keywords_by_df();
        assert_eq!(ranked[0], ("burger", 3));
        assert_eq!(idx.keyword_count(), ranked.len());
    }
}
