//! Keyword-query workload generator with ground-truth intents.
//!
//! The paper extracts keyword queries from MSN/AOL web-search logs and
//! manually reconstructs the intended structured query for each (§3.8.1,
//! §4.6.1). We invert the process: sample an *intended* structured query from
//! the generated database (choosing its shape from a weighted pattern list,
//! so template usage is skewed the way real logs are), then render it to
//! keywords by drawing tokens from the bound attribute values.
//!
//! The intent is recorded schema-level (table/attribute *names*), so
//! downstream crates can check whether a candidate query interpretation
//! matches the intent without a dependency cycle.

use crate::imdb::ImdbDataset;
use crate::lyrics::LyricsDataset;
use keybridge_index::Tokenizer;
use keybridge_relstore::{Database, RowId, TableId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// One keyword bag bound to one attribute in the intended interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentBinding {
    /// The keywords the user will type for this predicate (lowercase terms).
    pub keywords: Vec<String>,
    /// Table name holding the bound attribute.
    pub table: String,
    /// Attribute name the keywords select on.
    pub attr: String,
}

/// The intended structured query behind a keyword query, described at the
/// schema level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentSpec {
    /// All keyword bindings.
    pub bindings: Vec<IntentBinding>,
    /// The full multiset of tables in the intended join tree (including free
    /// connector tables), sorted; this identifies the intended template.
    pub tables: Vec<String>,
}

impl IntentSpec {
    /// All keywords of the query, in binding order.
    pub fn keywords(&self) -> Vec<String> {
        self.bindings
            .iter()
            .flat_map(|b| b.keywords.iter().cloned())
            .collect()
    }
}

/// One generated keyword query.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    pub id: usize,
    /// The keyword query as typed (bag of lowercase terms).
    pub keywords: Vec<String>,
    /// Ground truth.
    pub intent: IntentSpec,
    /// Whether the query references more than one entity concept
    /// (the sc/mc split of §4.6.1).
    pub multi_concept: bool,
}

/// Aggregated template usage: how often each table multiset was intended.
/// Stands in for the structural patterns mined from a query log (§3.5.2),
/// and feeds the `(ATF, TLog)` prior of Fig. 3.5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateUsage {
    /// Sorted table-name multiset identifying the template.
    pub tables: Vec<String>,
    pub count: usize,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub queries: Vec<WorkloadQuery>,
    pub template_usage: Vec<TemplateUsage>,
}

/// Workload sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    pub seed: u64,
    pub n_queries: usize,
    /// Fraction of multi-concept queries (the rest are single-concept).
    pub mc_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 5,
            n_queries: 100,
            mc_fraction: 0.5,
        }
    }
}

/// Internal: one intent pattern = a weighted recipe for sampling an intent.
struct Pattern {
    weight: u32,
    multi_concept: bool,
    /// Tables of the join tree, sorted later.
    tables: Vec<&'static str>,
    /// `(table, attr, max_tokens)` of the attributes to bind keywords to.
    binds: Vec<(&'static str, &'static str, usize)>,
    /// Sampler: picks connected rows and returns per-bind source strings.
    kind: PatternKind,
}

enum PatternKind {
    /// Bind from a single random row of `binds[0].table`.
    SingleRow,
    /// IMDB: actor ⋈ acts ⋈ movie (binds: actor.name, movie.title).
    ActorMovie,
    /// IMDB: director ⋈ directs ⋈ movie.
    DirectorMovie,
    /// IMDB: movie ⋈ company.
    MovieCompany,
    /// IMDB: two actors of one movie.
    TwoActors,
    /// IMDB: actor ⋈ acts (role keywords + actor name).
    ActorRole,
    /// Lyrics: artist ⋈ artist_album ⋈ album ⋈ album_song ⋈ song.
    ArtistSong,
    /// Lyrics: artist ⋈ artist_album ⋈ album.
    ArtistAlbum,
}

fn cell_text(db: &Database, table: TableId, row: RowId, attr: &str) -> String {
    let aid = db.schema().table(table).attr_id(attr).expect("known attr");
    db.table(table).row(row)[aid.0 as usize]
        .as_text()
        .unwrap_or("")
        .to_owned()
}

fn cell_int(db: &Database, table: TableId, row: RowId, attr: &str) -> i64 {
    let aid = db.schema().table(table).attr_id(attr).expect("known attr");
    db.table(table).row(row)[aid.0 as usize]
        .as_int()
        .expect("int attr")
}

fn random_row(db: &Database, table: TableId, rng: &mut StdRng) -> RowId {
    RowId(rng.gen_range(0..db.table(table).len() as u32))
}

/// Draw up to `max` distinct tokens from `text`; prefers the *last* tokens
/// (surnames carry more signal than first names, mirroring real queries).
fn draw_tokens(tok: &Tokenizer, text: &str, max: usize, rng: &mut StdRng) -> Vec<String> {
    let mut tokens = tok.tokenize_unique(text);
    if tokens.is_empty() {
        return tokens;
    }
    let n = rng.gen_range(1..=max.min(tokens.len()));
    // Keep the last n tokens with probability 0.6, otherwise the first n.
    if rng.gen_bool(0.6) {
        tokens.drain(..tokens.len() - n);
    } else {
        tokens.truncate(n);
    }
    tokens
}

impl Workload {
    /// Generate a workload against an IMDB-like dataset.
    pub fn imdb(data: &ImdbDataset, cfg: WorkloadConfig) -> Self {
        let patterns = vec![
            Pattern {
                weight: 30,
                multi_concept: false,
                tables: vec!["movie"],
                binds: vec![("movie", "title", 2)],
                kind: PatternKind::SingleRow,
            },
            Pattern {
                weight: 25,
                multi_concept: false,
                tables: vec!["actor"],
                binds: vec![("actor", "name", 2)],
                kind: PatternKind::SingleRow,
            },
            Pattern {
                weight: 20,
                multi_concept: true,
                tables: vec!["actor", "acts", "movie"],
                binds: vec![("actor", "name", 2), ("movie", "title", 2)],
                kind: PatternKind::ActorMovie,
            },
            Pattern {
                weight: 10,
                multi_concept: true,
                tables: vec!["director", "directs", "movie"],
                binds: vec![("director", "name", 2), ("movie", "title", 2)],
                kind: PatternKind::DirectorMovie,
            },
            Pattern {
                weight: 6,
                multi_concept: true,
                tables: vec!["movie", "company"],
                binds: vec![("movie", "title", 2), ("company", "name", 1)],
                kind: PatternKind::MovieCompany,
            },
            Pattern {
                weight: 5,
                multi_concept: true,
                tables: vec!["actor", "acts", "movie", "acts", "actor"],
                binds: vec![("actor", "name", 1), ("actor", "name", 1)],
                kind: PatternKind::TwoActors,
            },
            Pattern {
                weight: 4,
                multi_concept: true,
                tables: vec!["actor", "acts"],
                binds: vec![("actor", "name", 1), ("acts", "role", 1)],
                kind: PatternKind::ActorRole,
            },
        ];
        Self::generate(&data.db, &patterns, cfg, |db, p, rng| {
            sample_imdb(data, db, p, rng)
        })
    }

    /// Generate a workload against a Lyrics-like dataset.
    pub fn lyrics(data: &LyricsDataset, cfg: WorkloadConfig) -> Self {
        let patterns = vec![
            Pattern {
                weight: 22,
                multi_concept: false,
                tables: vec!["song"],
                binds: vec![("song", "title", 2)],
                kind: PatternKind::SingleRow,
            },
            Pattern {
                weight: 12,
                multi_concept: false,
                tables: vec!["artist"],
                binds: vec![("artist", "name", 2)],
                kind: PatternKind::SingleRow,
            },
            // The dominant chain template of §3.8.2 (log frequency ≈ 0.85
            // among multi-concept usage).
            Pattern {
                weight: 55,
                multi_concept: true,
                tables: vec!["artist", "artist_album", "album", "album_song", "song"],
                binds: vec![("artist", "name", 2), ("song", "title", 2)],
                kind: PatternKind::ArtistSong,
            },
            Pattern {
                weight: 8,
                multi_concept: true,
                tables: vec!["artist", "artist_album", "album"],
                binds: vec![("artist", "name", 2), ("album", "title", 2)],
                kind: PatternKind::ArtistAlbum,
            },
            Pattern {
                weight: 3,
                multi_concept: false,
                tables: vec!["album"],
                binds: vec![("album", "title", 2)],
                kind: PatternKind::SingleRow,
            },
        ];
        Self::generate(&data.db, &patterns, cfg, |db, p, rng| {
            sample_lyrics(data, db, p, rng)
        })
    }

    fn generate(
        db: &Database,
        patterns: &[Pattern],
        cfg: WorkloadConfig,
        sample: impl Fn(&Database, &Pattern, &mut StdRng) -> Option<Vec<String>>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let tok = Tokenizer::new();
        let total_sc: u32 = patterns
            .iter()
            .filter(|p| !p.multi_concept)
            .map(|p| p.weight)
            .sum();
        let total_mc: u32 = patterns
            .iter()
            .filter(|p| p.multi_concept)
            .map(|p| p.weight)
            .sum();

        let mut queries = Vec::with_capacity(cfg.n_queries);
        let mut usage: HashMap<Vec<String>, usize> = HashMap::new();
        let mut id = 0;
        let mut attempts = 0;
        while queries.len() < cfg.n_queries && attempts < cfg.n_queries * 50 {
            attempts += 1;
            let want_mc = rng.gen_bool(cfg.mc_fraction);
            let total = if want_mc { total_mc } else { total_sc };
            if total == 0 {
                break;
            }
            let mut pick = rng.gen_range(0..total);
            let pat = patterns
                .iter()
                .filter(|p| p.multi_concept == want_mc)
                .find(|p| {
                    if pick < p.weight {
                        true
                    } else {
                        pick -= p.weight;
                        false
                    }
                })
                .expect("weights cover range");

            let Some(sources) = sample(db, pat, &mut rng) else {
                continue;
            };
            debug_assert_eq!(sources.len(), pat.binds.len());
            let mut bindings = Vec::with_capacity(pat.binds.len());
            let mut ok = true;
            for (src, (table, attr, max)) in sources.iter().zip(&pat.binds) {
                let kws = draw_tokens(&tok, src, *max, &mut rng);
                if kws.is_empty() {
                    ok = false;
                    break;
                }
                bindings.push(IntentBinding {
                    keywords: kws,
                    table: (*table).to_owned(),
                    attr: (*attr).to_owned(),
                });
            }
            if !ok {
                continue;
            }
            let mut tables: Vec<String> = pat.tables.iter().map(|s| (*s).to_owned()).collect();
            tables.sort();
            *usage.entry(tables.clone()).or_default() += 1;
            let intent = IntentSpec { bindings, tables };
            queries.push(WorkloadQuery {
                id,
                keywords: intent.keywords(),
                intent,
                multi_concept: want_mc,
            });
            id += 1;
        }

        let mut template_usage: Vec<TemplateUsage> = usage
            .into_iter()
            .map(|(tables, count)| TemplateUsage { tables, count })
            .collect();
        template_usage.sort_by(|a, b| b.count.cmp(&a.count).then(a.tables.cmp(&b.tables)));
        Workload {
            queries,
            template_usage,
        }
    }

    /// Queries flagged multi-concept.
    pub fn multi_concept(&self) -> impl Iterator<Item = &WorkloadQuery> {
        self.queries.iter().filter(|q| q.multi_concept)
    }
}

/// Sample connected rows for an IMDB pattern; returns one source string per
/// bind, or `None` if the dice landed on an unusable row.
fn sample_imdb(
    data: &ImdbDataset,
    db: &Database,
    pat: &Pattern,
    rng: &mut StdRng,
) -> Option<Vec<String>> {
    match pat.kind {
        PatternKind::SingleRow => {
            let (table, attr, _) = pat.binds[0];
            let tid = db.schema().table_id(table)?;
            let row = random_row(db, tid, rng);
            Some(vec![cell_text(db, tid, row, attr)])
        }
        PatternKind::ActorMovie => {
            let acts_row = random_row(db, data.acts, rng);
            let actor_pk = cell_int(db, data.acts, acts_row, "actor_id");
            let movie_pk = cell_int(db, data.acts, acts_row, "movie_id");
            let actor = db.table(data.actor).by_pk(actor_pk)?;
            let movie = db.table(data.movie).by_pk(movie_pk)?;
            Some(vec![
                cell_text(db, data.actor, actor, "name"),
                cell_text(db, data.movie, movie, "title"),
            ])
        }
        PatternKind::DirectorMovie => {
            let d_row = random_row(db, data.directs, rng);
            let dir_pk = cell_int(db, data.directs, d_row, "director_id");
            let movie_pk = cell_int(db, data.directs, d_row, "movie_id");
            let dir = db.table(data.director).by_pk(dir_pk)?;
            let movie = db.table(data.movie).by_pk(movie_pk)?;
            Some(vec![
                cell_text(db, data.director, dir, "name"),
                cell_text(db, data.movie, movie, "title"),
            ])
        }
        PatternKind::MovieCompany => {
            let movie = random_row(db, data.movie, rng);
            let company_pk = cell_int(db, data.movie, movie, "company_id");
            let company = db.table(data.company).by_pk(company_pk)?;
            Some(vec![
                cell_text(db, data.movie, movie, "title"),
                cell_text(db, data.company, company, "name"),
            ])
        }
        PatternKind::TwoActors => {
            // Pick a movie with >= 2 cast rows via two acts rows that agree.
            let a1 = random_row(db, data.acts, rng);
            let movie_pk = cell_int(db, data.acts, a1, "movie_id");
            let fk_movie = db
                .schema()
                .fks()
                .find(|(_, f)| f.from.table == data.acts && f.to.table == data.movie)?
                .0;
            let cast: Vec<RowId> = db.fk_referrers(fk_movie, movie_pk).to_vec();
            if cast.len() < 2 {
                return None;
            }
            let a2 = cast[rng.gen_range(0..cast.len())];
            if a2 == a1 {
                return None;
            }
            let p1 = cell_int(db, data.acts, a1, "actor_id");
            let p2 = cell_int(db, data.acts, a2, "actor_id");
            if p1 == p2 {
                return None;
            }
            let actor1 = db.table(data.actor).by_pk(p1)?;
            let actor2 = db.table(data.actor).by_pk(p2)?;
            Some(vec![
                cell_text(db, data.actor, actor1, "name"),
                cell_text(db, data.actor, actor2, "name"),
            ])
        }
        PatternKind::ActorRole => {
            let acts_row = random_row(db, data.acts, rng);
            let actor_pk = cell_int(db, data.acts, acts_row, "actor_id");
            let actor = db.table(data.actor).by_pk(actor_pk)?;
            Some(vec![
                cell_text(db, data.actor, actor, "name"),
                cell_text(db, data.acts, acts_row, "role"),
            ])
        }
        _ => None,
    }
}

/// Sample connected rows for a Lyrics pattern.
fn sample_lyrics(
    data: &LyricsDataset,
    db: &Database,
    pat: &Pattern,
    rng: &mut StdRng,
) -> Option<Vec<String>> {
    match pat.kind {
        PatternKind::SingleRow => {
            let (table, attr, _) = pat.binds[0];
            let tid = db.schema().table_id(table)?;
            let row = random_row(db, tid, rng);
            Some(vec![cell_text(db, tid, row, attr)])
        }
        PatternKind::ArtistSong => {
            // song -> album -> artist along the junction tables.
            let as_row = random_row(db, data.album_song, rng);
            let album_pk = cell_int(db, data.album_song, as_row, "album_id");
            let song_pk = cell_int(db, data.album_song, as_row, "song_id");
            let fk_album = db
                .schema()
                .fks()
                .find(|(_, f)| f.from.table == data.artist_album && f.to.table == data.album)?
                .0;
            let links = db.fk_referrers(fk_album, album_pk);
            if links.is_empty() {
                return None;
            }
            let aa = links[rng.gen_range(0..links.len())];
            let artist_pk = cell_int(db, data.artist_album, aa, "artist_id");
            let artist = db.table(data.artist).by_pk(artist_pk)?;
            let song = db.table(data.song).by_pk(song_pk)?;
            Some(vec![
                cell_text(db, data.artist, artist, "name"),
                cell_text(db, data.song, song, "title"),
            ])
        }
        PatternKind::ArtistAlbum => {
            let aa = random_row(db, data.artist_album, rng);
            let artist_pk = cell_int(db, data.artist_album, aa, "artist_id");
            let album_pk = cell_int(db, data.artist_album, aa, "album_id");
            let artist = db.table(data.artist).by_pk(artist_pk)?;
            let album = db.table(data.album).by_pk(album_pk)?;
            Some(vec![
                cell_text(db, data.artist, artist, "name"),
                cell_text(db, data.album, album, "title"),
            ])
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imdb::ImdbConfig;
    use crate::lyrics::LyricsConfig;

    #[test]
    fn imdb_workload_shape() {
        let data = ImdbDataset::generate(ImdbConfig::tiny(1)).unwrap();
        let w = Workload::imdb(
            &data,
            WorkloadConfig {
                seed: 9,
                n_queries: 60,
                mc_fraction: 0.5,
            },
        );
        assert_eq!(w.queries.len(), 60);
        let mc = w.multi_concept().count();
        assert!(mc > 5 && w.queries.len() - mc > 5);
        for q in &w.queries {
            assert!(!q.keywords.is_empty());
            assert_eq!(q.keywords, q.intent.keywords());
            assert!(!q.intent.tables.is_empty());
            let mut sorted = q.intent.tables.clone();
            sorted.sort();
            assert_eq!(sorted, q.intent.tables, "tables stored sorted");
        }
    }

    #[test]
    fn bindings_reference_real_attributes() {
        let data = ImdbDataset::generate(ImdbConfig::tiny(2)).unwrap();
        let w = Workload::imdb(&data, WorkloadConfig::default());
        for q in &w.queries {
            for b in &q.intent.bindings {
                let r = data.db.schema().resolve(&b.table, &b.attr);
                assert!(r.is_ok(), "{}.{} unknown", b.table, b.attr);
                // The bound table participates in the intended join tree.
                assert!(q.intent.tables.contains(&b.table));
            }
        }
    }

    #[test]
    fn keywords_occur_in_bound_attribute() {
        // Ground truth must be satisfiable: every bound keyword bag occurs
        // together in some value of the bound attribute.
        let data = ImdbDataset::generate(ImdbConfig::tiny(3)).unwrap();
        let idx = keybridge_index::InvertedIndex::build(&data.db);
        let w = Workload::imdb(
            &data,
            WorkloadConfig {
                seed: 1,
                n_queries: 40,
                mc_fraction: 0.5,
            },
        );
        for q in &w.queries {
            for b in &q.intent.bindings {
                let aref = data.db.schema().resolve(&b.table, &b.attr).unwrap();
                let rows = idx.rows_with_all(&b.keywords, aref);
                assert!(
                    !rows.is_empty(),
                    "keywords {:?} missing from {}.{}",
                    b.keywords,
                    b.table,
                    b.attr
                );
            }
        }
    }

    #[test]
    fn lyrics_chain_dominates_usage() {
        let data = LyricsDataset::generate(LyricsConfig::tiny(4)).unwrap();
        let w = Workload::lyrics(
            &data,
            WorkloadConfig {
                seed: 2,
                n_queries: 120,
                mc_fraction: 0.6,
            },
        );
        let chain: Vec<String> = {
            let mut t = vec![
                "artist".to_owned(),
                "artist_album".to_owned(),
                "album".to_owned(),
                "album_song".to_owned(),
                "song".to_owned(),
            ];
            t.sort();
            t
        };
        let top = &w.template_usage[0];
        assert_eq!(top.tables, chain, "chain template should dominate");
    }

    #[test]
    fn deterministic() {
        let data = ImdbDataset::generate(ImdbConfig::tiny(5)).unwrap();
        let a = Workload::imdb(&data, WorkloadConfig::default());
        let b = Workload::imdb(&data, WorkloadConfig::default());
        assert_eq!(a.queries.len(), b.queries.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.keywords, y.keywords);
        }
    }

    #[test]
    fn usage_counts_sum_to_query_count() {
        let data = ImdbDataset::generate(ImdbConfig::tiny(6)).unwrap();
        let w = Workload::imdb(&data, WorkloadConfig::default());
        let total: usize = w.template_usage.iter().map(|u| u.count).sum();
        assert_eq!(total, w.queries.len());
    }
}
