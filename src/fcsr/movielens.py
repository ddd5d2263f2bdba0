"""MovieLens-style ratings ingestion into grouped-bandit instances.

Arms are movie portfolios (one movie per genre), attributes are genres, and
an attribute's reward stream replays that movie's historical star ratings,
normalized into [0, 1]. The reference setup filters to movies with at least
800 ratings, uses the 5 most frequent genres, K = 3 portfolios, and
threshold 0.73 (3.65 stars out of 5).

Input files follow the public MovieLens layout: ``ratings.csv`` with header
``userId,movieId,rating,timestamp`` and ``movies.csv`` with header
``movieId,title,genres`` (pipe-separated genres, quoted titles may contain
commas).
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import BanditInstance, Bernoulli, Empirical, _integer, _real

__all__ = [
    "RATING_MIN",
    "RATING_MAX",
    "Movie",
    "RatingsCorpus",
    "PortfolioSpec",
    "parse_corpus",
    "build_instance",
    "auto_select_portfolios",
    "table1_portfolio_titles",
    "table1_surrogate_instance",
    "TABLE1_GENRES",
    "TABLE1_ATTRIBUTE_MEANS",
]

RATING_MIN = 0.5
RATING_MAX = 5.0
DEFAULT_THRESHOLD = 0.73
DEFAULT_MIN_RATINGS = 800

_RATINGS_HEADER = ("userId", "movieId", "rating", "timestamp")
_MOVIES_HEADER = ("movieId", "title", "genres")
_NO_GENRES = "(no genres listed)"


@dataclass(frozen=True)
class Movie:
    title: str
    genres: tuple[str, ...]


@dataclass
class RatingsCorpus:
    """Parsed ratings joined against the movie table.

    ``movie_ids`` and ``ratings`` are aligned columns; rows that failed to
    parse, fell outside the rating scale, or referenced an unknown movie are
    counted in ``skipped_rows`` rather than kept.
    """

    movie_ids: np.ndarray
    ratings: np.ndarray
    movies: dict[int, Movie]
    skipped_rows: int = 0
    _by_movie: dict[int, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.ratings)

    def ratings_for(self, movie_id: int) -> np.ndarray:
        """The movie's ratings in file order; empty for an unrated movie."""
        if self._by_movie is None:
            # A stable sort keeps each movie's ratings in file order.
            order = np.argsort(self.movie_ids, kind="stable")
            ids, starts = np.unique(self.movie_ids[order], return_index=True)
            groups = np.split(self.ratings[order], starts[1:])
            self._by_movie = dict(zip(ids.tolist(), groups))
        return self._by_movie.get(movie_id, np.empty(0))

    def rating_count(self, movie_id: int) -> int:
        return len(self.ratings_for(movie_id))

    def resolve_title(self, title: str) -> int:
        """Movie id for an exact title match; raises KeyError when absent."""
        for movie_id, movie in self.movies.items():
            if movie.title == title:
                return movie_id
        raise KeyError(f"no movie titled {title!r} in the corpus")


@contextmanager
def _csv_rows(path: str | Path, expected: tuple[str, ...]):
    """A CSV reader over the rows after the header of the file at ``path``,
    which must be UTF-8 text whose header is ``expected``. The file is closed
    when the ``with`` block ends, however it ends."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected header {','.join(expected)}")
            if [h.strip() for h in header] != list(expected):
                raise ValueError(f"{path}: missing or wrong header; expected {','.join(expected)}")
            yield reader
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def parse_corpus(ratings_path: str | Path, movies_path: str | Path) -> RatingsCorpus:
    """Stream both CSV files into a joined corpus.

    Malformed rows (wrong field count, unparsable numbers, ratings outside
    [0.5, 5.0], ratings of unknown movies) are skipped and counted; more
    than 1% malformed rows aborts the parse, as does an empty ratings file.
    """
    movies: dict[int, Movie] = {}
    with _csv_rows(movies_path, _MOVIES_HEADER) as reader:
        for row in reader:
            if len(row) != 3:
                continue
            try:
                movie_id = int(row[0])
            except ValueError:
                continue
            genres = tuple(
                g for g in row[2].split("|") if g and g != _NO_GENRES
            )
            movies[movie_id] = Movie(title=row[1], genres=genres)

    mids: list[int] = []
    vals: list[float] = []
    skipped = 0
    total = 0
    with _csv_rows(ratings_path, _RATINGS_HEADER) as reader:
        for row in reader:
            total += 1
            if len(row) != 4:
                skipped += 1
                continue
            try:
                int(row[0])  # the user id and timestamp are checked, not kept
                movie_id = int(row[1])
                rating = float(row[2])
                int(row[3])
            except ValueError:
                skipped += 1
                continue
            if not RATING_MIN <= rating <= RATING_MAX or movie_id not in movies:
                skipped += 1
                continue
            mids.append(movie_id)
            vals.append(rating)
    if total == 0:
        raise ValueError(f"{ratings_path}: no ratings")
    if skipped > 0.01 * total:
        raise ValueError(
            f"{ratings_path}: {skipped}/{total} malformed rows exceeds the 1% limit"
        )
    if not vals:
        raise ValueError(f"{ratings_path}: no ratings")
    return RatingsCorpus(
        movie_ids=np.asarray(mids, dtype=np.int64),
        ratings=np.asarray(vals, dtype=np.float64),
        movies=movies,
        skipped_rows=skipped,
    )


@dataclass(frozen=True)
class PortfolioSpec:
    """K portfolios over a shared ordered genre set.

    Args:
        genres: attribute order; every portfolio maps exactly these genres.
        arms: one genre -> movie-id mapping per portfolio.
        threshold: feasibility cutoff on normalized mean rating.
        min_ratings: movies below this rating count are rejected (inclusive
            bound: exactly ``min_ratings`` ratings is accepted); an integer
            >= 1, since an attribute replays at least one rating.
        arm_labels: optional display names per portfolio.
    """

    genres: tuple[str, ...]
    arms: tuple[Mapping[str, int], ...]
    threshold: float = DEFAULT_THRESHOLD
    min_ratings: int = DEFAULT_MIN_RATINGS
    arm_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", _real("threshold", self.threshold))
        object.__setattr__(self, "min_ratings", _integer("min_ratings", self.min_ratings, 1))
        if not self.genres:
            raise ValueError("portfolio spec needs at least one genre")
        if not self.arms:
            raise ValueError("portfolio spec needs at least one portfolio")
        genre_set = set(self.genres)
        for idx, arm in enumerate(self.arms):
            if set(arm) != genre_set:
                raise ValueError(
                    f"portfolio {idx} covers genres {sorted(arm)}, expected "
                    f"{sorted(genre_set)} (genre mismatch across portfolios)"
                )


def build_instance(corpus: RatingsCorpus, spec: PortfolioSpec) -> BanditInstance:
    """Materialize a portfolio spec into a bandit instance.

    Attribute (i, j) replays movie ``spec.arms[i][spec.genres[j]]``'s
    ratings, each divided by ``RATING_MAX``.
    Every referenced movie must clear the min-ratings filter.
    """
    rows = []
    for idx, arm in enumerate(spec.arms):
        dists = []
        for genre in spec.genres:
            movie_id = arm[genre]
            values = corpus.ratings_for(movie_id)
            if len(values) < spec.min_ratings:
                title = corpus.movies.get(movie_id)
                name = title.title if title else str(movie_id)
                raise ValueError(
                    f"movie {name!r} has {len(values)} ratings, below the "
                    f"minimum {spec.min_ratings}"
                )
            dists.append(Empirical(tuple((values / RATING_MAX).tolist())))
        rows.append(tuple(dists))
    labels = spec.arm_labels or tuple(str(i) for i in range(len(spec.arms)))
    return BanditInstance(
        arms=tuple(rows),
        threshold=spec.threshold,
        arm_labels=labels,
        attribute_labels=spec.genres,
    )


def auto_select_portfolios(
    corpus: RatingsCorpus,
    num_arms: int,
    num_attributes: int = 5,
    min_ratings: int = DEFAULT_MIN_RATINGS,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 0,
) -> PortfolioSpec:
    """Assemble K random portfolios from the corpus, deterministically per seed.

    Movies below the rating-count filter are dropped; the M most frequent
    genres among survivors become the attributes (frequency ties broken by
    genre name); each surviving movie is bucketed under the first of its
    listed genres that made the cut; and each portfolio draws one distinct
    movie per genre bucket without replacement.
    """
    _integer("num_arms (--k)", num_arms, 1)
    _integer("num_attributes (--m)", num_attributes, 1)
    eligible = sorted(
        m for m in corpus.movies if corpus.rating_count(m) >= min_ratings
    )
    if not eligible:
        raise ValueError("no movies clear the min-ratings filter")
    counts: Counter[str] = Counter()
    for movie_id in eligible:
        counts.update(corpus.movies[movie_id].genres)
    if len(counts) < num_attributes:
        raise ValueError(
            f"only {len(counts)} genres available, need {num_attributes}"
        )
    top = sorted(counts, key=lambda g: (-counts[g], g))[:num_attributes]
    top_set = set(top)
    buckets: dict[str, list[int]] = {g: [] for g in top}
    for movie_id in eligible:
        for genre in corpus.movies[movie_id].genres:
            if genre in top_set:
                buckets[genre].append(movie_id)
                break
    short = [g for g in top if len(buckets[g]) < num_arms]
    if short:
        raise ValueError(
            f"genres {short} have fewer than {num_arms} eligible movies; "
            f"need {num_arms}x{num_attributes} in total"
        )
    gen = np.random.default_rng(seed)
    picks = {
        g: gen.choice(np.asarray(buckets[g]), size=num_arms, replace=False)
        for g in top
    }
    arms = tuple(
        {g: int(picks[g][i]) for g in top} for i in range(num_arms)
    )
    return PortfolioSpec(
        genres=tuple(top),
        arms=arms,
        threshold=threshold,
        min_ratings=min_ratings,
    )


# ---------------------------------------------------------------------------
# The published 3x5 reference portfolio ("Table 1") and its surrogate.
# ---------------------------------------------------------------------------

TABLE1_GENRES = ("Comedy", "Action", "Drama", "Thriller", "Sci-Fi")

_TABLE1_TITLES = (
    {
        "Comedy": "Princess Bride, The (1987)",
        "Action": "Star Wars: Episode IV - A New Hope (1977)",
        "Drama": "American Beauty (1999)",
        "Thriller": "Dark City (1998)",
        "Sci-Fi": "Army of Darkness (1993)",
    },
    {
        "Comedy": "Blazing Saddles (1974)",
        "Action": "Star Wars: Episode VI - Return of the Jedi (1983)",
        "Drama": "Bridge on the River Kwai, The (1957)",
        "Thriller": "Con Air (1997)",
        "Sci-Fi": "X-Files: Fight the Future, The (1998)",
    },
    {
        "Comedy": "My Cousin Vinny (1992)",
        "Action": "Mission: Impossible (1996)",
        "Drama": "Leaving Las Vegas (1995)",
        "Thriller": "Devil's Advocate, The (1997)",
        "Sci-Fi": "Mad Max (1979)",
    },
)

# Normalized mean rating of each movie above, rows = portfolios 0..2. Only
# portfolio 0 clears threshold 0.73 on every genre.
TABLE1_ATTRIBUTE_MEANS = (
    (0.826, 0.824, 0.821, 0.761, 0.747),
    (0.772, 0.799, 0.819, 0.640, 0.668),
    (0.721, 0.680, 0.735, 0.709, 0.706),
)


def table1_portfolio_titles() -> tuple[dict[str, str], ...]:
    """Genre -> movie title maps of the reference portfolios, for resolving
    against a real corpus (titles must match the movie table exactly)."""
    return tuple(dict(arm) for arm in _TABLE1_TITLES)


def table1_portfolio_spec(corpus: RatingsCorpus) -> PortfolioSpec:
    """Resolve the reference portfolios against a parsed corpus by title."""
    arms = tuple(
        {genre: corpus.resolve_title(title) for genre, title in arm.items()}
        for arm in _TABLE1_TITLES
    )
    return PortfolioSpec(
        genres=TABLE1_GENRES,
        arms=arms,
        arm_labels=("0", "1", "2"),
    )


def table1_surrogate_instance() -> BanditInstance:
    """Bernoulli stand-in for the reference portfolio instance.

    Matches the published attribute means exactly so the oracle (feasible
    set {portfolio 0}, best arm = portfolio 0) carries over when the real
    dataset is unavailable. Bernoulli rewards are not ratings, but the
    identification problem depends on the means and comparable variances.
    """
    rows = tuple(
        tuple(Bernoulli(p) for p in row) for row in TABLE1_ATTRIBUTE_MEANS
    )
    return BanditInstance(
        arms=rows,
        threshold=DEFAULT_THRESHOLD,
        arm_labels=("0", "1", "2"),
        attribute_labels=TABLE1_GENRES,
    )
