"""Deterministic MovieLens-layout corpus for the ``portfolio-pool`` workload.

Writes ``ratings.csv`` (userId,movieId,rating,timestamp) and ``movies.csv``
(movieId,title,genres) from a seed. The same seed gives byte-identical files.

The corpus is shaped after the paper's 3x5 reference portfolio: five genres
with exactly three movies each that clear the 800-rating filter, so the
ingester's auto-selection (K=3, M=5) always picks all fifteen and only the
assignment of movies to portfolios depends on the ingest seed. Every movie
clears the 0.73 threshold except two of the three Thriller movies, so
whatever the assignment, exactly one portfolio is feasible and it is the
best arm. Movie sizes and target means are fixed; the seed only draws the
individual ratings, users and timestamps, so trial costs barely move from
seed to seed.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

GENRES = ("Comedy", "Action", "Drama", "Thriller", "Sci-Fi")
THRESHOLD = 0.73
NORMALIZER = 5.0

# Target normalized mean rating of the three eligible movies of each genre
# (after TABLE1_ATTRIBUTE_MEANS in fcsr.movielens, moved so that only the
# Thriller column separates feasible from infeasible portfolios).
TARGET_MEANS = {
    "Comedy": (0.826, 0.780, 0.790),
    "Action": (0.824, 0.799, 0.770),
    "Drama": (0.821, 0.819, 0.765),
    "Thriller": (0.771, 0.640, 0.700),
    "Sci-Fi": (0.767, 0.778, 0.790),
}
# Ratings per eligible movie, fixed so that Empirical draw costs do not
# depend on the seed. Each replays as a multinomial over this many values.
ELIGIBLE_SIZES = (3000, 3400, 3800)
# Movies below the 800-rating filter, with a secondary genre outside the top five.
FILLER_SIZES = tuple(150 + 40 * i for i in range(16))
FILLER_GENRES = ("Romance", "Horror", "Children", "Documentary")
STAR_SD = 0.95
NUM_USERS = 20000
FIRST_TIMESTAMP = 946684800  # 2000-01-01
LAST_TIMESTAMP = 1577836800  # 2020-01-01


def _stars(gen: np.random.Generator, mean_norm: float, size: int) -> np.ndarray:
    """Half-star ratings in [0.5, 5] whose normalized mean is near ``mean_norm``."""
    raw = gen.normal(mean_norm * NORMALIZER, STAR_SD, size=size)
    return np.clip(np.round(raw * 2.0) / 2.0, 0.5, 5.0)


def write_corpus(seed: int, out_dir: str | Path) -> dict:
    """Write the CSV pair for ``seed`` into ``out_dir``.

    Returns a summary: file paths, row counts and, per eligible movie, its
    genre and realized normalized mean rating.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gen = np.random.default_rng([seed % (1 << 63), 0x6D6C])
    movie_rows: list[tuple[int, str, str]] = []
    rating_blocks: list[np.ndarray] = []
    eligible: dict[int, dict] = {}
    movie_id = 1
    for g_idx, genre in enumerate(GENRES):
        for slot, target in enumerate(TARGET_MEANS[genre]):
            size = ELIGIBLE_SIZES[slot]
            stars = _stars(gen, target, size)
            # A couple of eligible movies carry a secondary genre that stays
            # out of the top five (it appears on at most two of them).
            genres = genre if (g_idx + slot) % 7 else f"{genre}|Romance"
            movie_rows.append((movie_id, f"{genre} Feature {slot + 1}, The (19{80 + 3 * g_idx + slot})", genres))
            rating_blocks.append(np.column_stack([np.full(size, movie_id), stars]))
            eligible[movie_id] = {
                "genre": genre,
                "ratings": size,
                "mean": float(stars.mean() / NORMALIZER),
            }
            movie_id += 1
    for idx, size in enumerate(FILLER_SIZES):
        genre = f"{GENRES[idx % len(GENRES)]}|{FILLER_GENRES[idx % len(FILLER_GENRES)]}"
        stars = _stars(gen, 0.6 + 0.02 * (idx % 10), size)
        movie_rows.append((movie_id, f"Short Run {idx} (2001)", genre))
        rating_blocks.append(np.column_stack([np.full(size, movie_id), stars]))
        movie_id += 1

    body = np.concatenate(rating_blocks)
    order = gen.permutation(len(body))
    body = body[order]
    users = gen.integers(1, NUM_USERS + 1, size=len(body))
    stamps = gen.integers(FIRST_TIMESTAMP, LAST_TIMESTAMP, size=len(body))

    movies_path = out / "movies.csv"
    with open(movies_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("movieId", "title", "genres"))
        writer.writerows(movie_rows)
    ratings_path = out / "ratings.csv"
    lines = [
        f"{u},{int(m)},{r:.1f},{t}"
        for u, m, r, t in zip(users.tolist(), body[:, 0].tolist(), body[:, 1].tolist(), stamps.tolist())
    ]
    ratings_path.write_text(
        "userId,movieId,rating,timestamp\n" + "\n".join(lines) + "\n", encoding="utf-8"
    )
    _check_design(eligible)
    return {
        "ratings_csv": str(ratings_path),
        "movies_csv": str(movies_path),
        "rating_rows": len(body),
        "movies": len(movie_rows),
        "eligible": eligible,
    }


def _check_design(eligible: dict[int, dict]) -> None:
    """The realized means must keep the one-feasible-portfolio design: every
    movie above the threshold except all Thriller movies but the best."""
    best_thriller = max(e["mean"] for e in eligible.values() if e["genre"] == "Thriller")
    for info in eligible.values():
        expected = info["genre"] != "Thriller" or info["mean"] == best_thriller
        if (info["mean"] > THRESHOLD) != expected:
            raise RuntimeError(f"generated corpus breaks the design: {info}")

