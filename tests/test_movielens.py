"""Ratings-ingestion tests over small synthetic CSV corpora."""

import re

import numpy as np
import pytest

from fcsr.core import oracle
from fcsr.movielens import (
    PortfolioSpec,
    auto_select_portfolios,
    build_instance,
    parse_corpus,
    table1_surrogate_instance,
)
from fcsr.serialize import portfolio_from_dict


def write_corpus(tmp_path, ratings_rows, movies_rows, name="corpus"):
    ratings = tmp_path / f"{name}-ratings.csv"
    movies = tmp_path / f"{name}-movies.csv"
    ratings.write_text(
        "userId,movieId,rating,timestamp\n" + "".join(r + "\n" for r in ratings_rows)
    )
    movies.write_text(
        "movieId,title,genres\n" + "".join(m + "\n" for m in movies_rows)
    )
    return ratings, movies


MOVIES = [
    '1,"Movie, The (1999)",Comedy|Drama',
    "2,Other Film (2001),Action",
]


def test_parse_basic_row(tmp_path):
    ratings, movies = write_corpus(tmp_path, ["1,296,5.0,1147880044"], ['296,Pulp (1994),Drama'])
    corpus = parse_corpus(ratings, movies)
    assert corpus.movie_ids.tolist() == [296]
    assert corpus.ratings.tolist() == [5.0]
    assert corpus.skipped_rows == 0


def test_parse_quoted_title_with_comma(tmp_path):
    ratings, movies = write_corpus(tmp_path, ["1,1,4.0,10"], MOVIES)
    corpus = parse_corpus(ratings, movies)
    assert corpus.movies[1].title == "Movie, The (1999)"
    assert corpus.movies[1].genres == ("Comedy", "Drama")


def test_parse_empty_ratings_rejected(tmp_path):
    ratings, movies = write_corpus(tmp_path, [], MOVIES)
    with pytest.raises(ValueError, match="no ratings"):
        parse_corpus(ratings, movies)


def test_parse_missing_header_rejected(tmp_path):
    ratings = tmp_path / "r.csv"
    ratings.write_text("1,296,5.0,1147880044\n")
    movies = tmp_path / "m.csv"
    movies.write_text("movieId,title,genres\n296,X,Drama\n")
    with pytest.raises(ValueError, match="header"):
        parse_corpus(ratings, movies)


@pytest.mark.parametrize("spoil", ["header", "row"])
def test_parse_rejects_a_ratings_file_that_is_not_utf8(tmp_path, spoil):
    # The file is closed on the error: a leaked handle would fail the test,
    # as warnings are errors. A bad row comes after several read buffers.
    ratings, movies = write_corpus(tmp_path, ["1,1,4.0,10"] * 2000, MOVIES)
    text = ratings.read_bytes()
    ratings.write_bytes(b"\xff\xfe" + text if spoil == "header" else text + b"1,1,\xff,10\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(ratings))}: not UTF-8 text"):
        parse_corpus(ratings, movies)


def test_parse_skips_and_counts_bad_rows(tmp_path):
    rows = [f"1,1,4.0,{i}" for i in range(400)]
    rows.append("2,1,not-a-number,5")  # four malformed rows in 404 are under 1%
    rows.append("x,1,4.0,5")  # the user id and timestamp are parsed, not kept
    rows.append("2,1,4.0,later")
    rows.append("2,1,4.0")  # a field short
    # Malformed movie rows are skipped, and uncounted: a field short, an id
    # that is no integer.
    ratings, movies = write_corpus(tmp_path, rows, [*MOVIES, "3,Short Row (2002)", "x,Bad Id (2003),Drama"])
    corpus = parse_corpus(ratings, movies)
    assert corpus.skipped_rows == 4
    assert len(corpus) == 400
    assert sorted(corpus.movies) == [1, 2]


def test_parse_aborts_above_one_percent_malformed(tmp_path):
    rows = ["1,1,4.0,1", "2,1,oops,2", "3,1,4.5,3"]
    ratings, movies = write_corpus(tmp_path, rows, MOVIES)
    with pytest.raises(ValueError, match="1%"):
        parse_corpus(ratings, movies)


def test_parse_rejects_out_of_scale_and_unknown_movies(tmp_path):
    rows = [f"1,1,4.0,{i}" for i in range(300)]
    rows.append("7,1,5.5,1")  # outside the 0.5..5.0 scale
    rows.append("7,999,4.0,1")  # not in the movie table
    ratings, movies = write_corpus(tmp_path, rows, MOVIES)
    corpus = parse_corpus(ratings, movies)
    assert corpus.skipped_rows == 2
    assert set(np.unique(corpus.movie_ids)) == {1}


# ---------------------------------------------------------------------------
# Instance construction
# ---------------------------------------------------------------------------


def _corpus_with_counts(tmp_path, counts, rating=4.0):
    """One movie per (id, count): movie id i gets counts[i] identical ratings."""
    rows = []
    movies = []
    for movie_id, count in counts.items():
        movies.append(f"{movie_id},Film {movie_id},Drama")
        rows.extend(f"{u},{movie_id},{rating},{u}" for u in range(count))
    return write_corpus(tmp_path, rows, movies)


def test_each_movie_keeps_its_ratings_in_file_order(tmp_path):
    # Two movies' rows interleave, and each movie's ratings cycle through
    # the scale, so any reordering within a movie shows.
    movie_of = [1 if i % 3 else 2 for i in range(300)]
    stars = [0.5 * (1 + (7 * i) % 10) for i in range(300)]
    rows = [f"{i},{m},{r},{i}" for i, (m, r) in enumerate(zip(movie_of, stars))]
    corpus = parse_corpus(*write_corpus(tmp_path, rows, MOVIES))
    in_file_order = {movie: [r for m, r in zip(movie_of, stars) if m == movie] for movie in (1, 2)}
    for movie, expected in in_file_order.items():
        assert corpus.ratings_for(movie).tolist() == expected
    assert corpus.ratings_for(99).tolist() == []
    spec = PortfolioSpec(genres=("Comedy", "Action"), arms=({"Comedy": 1, "Action": 2},), min_ratings=1)
    comedy, action = build_instance(corpus, spec).arms[0]
    assert comedy.values == tuple(r / 5.0 for r in in_file_order[1])
    assert action.values == tuple(r / 5.0 for r in in_file_order[2])


def test_min_ratings_boundary_inclusive(tmp_path):
    ratings, movies = _corpus_with_counts(tmp_path, {1: 800, 2: 800})
    corpus = parse_corpus(ratings, movies)
    spec = PortfolioSpec(
        genres=("Drama",), arms=({"Drama": 1}, {"Drama": 2}), min_ratings=800
    )
    instance = build_instance(corpus, spec)
    assert instance.num_arms == 2


def test_min_ratings_violation_rejected(tmp_path):
    ratings, movies = _corpus_with_counts(tmp_path, {1: 800, 2: 799})
    corpus = parse_corpus(ratings, movies)
    spec = PortfolioSpec(
        genres=("Drama",), arms=({"Drama": 1}, {"Drama": 2}), min_ratings=800
    )
    with pytest.raises(ValueError, match="below the minimum"):
        build_instance(corpus, spec)


def test_all_top_ratings_normalize_to_one(tmp_path):
    ratings, movies = _corpus_with_counts(tmp_path, {1: 10, 2: 10}, rating=5.0)
    corpus = parse_corpus(ratings, movies)
    spec = PortfolioSpec(
        genres=("Drama",), arms=({"Drama": 1}, {"Drama": 2}), min_ratings=5
    )
    instance = build_instance(corpus, spec)
    assert instance.attribute_means[0, 0] == 1.0


def test_genre_mismatch_rejected():
    with pytest.raises(ValueError, match="genre mismatch"):
        PortfolioSpec(
            genres=("Drama", "Action"),
            arms=({"Drama": 1, "Action": 2}, {"Drama": 3, "Comedy": 4}),
        )


@pytest.mark.parametrize("threshold", [float("nan"), "0.7", True], ids=["nan", "str", "bool"])
def test_portfolio_threshold_must_be_a_real_number(threshold):
    # It was kept as given: a NaN or a string failed only in build_instance,
    # after the corpus was parsed, and a bool ran as 1.0.
    message = re.escape(f"threshold must be a real number in (-inf, inf), got {threshold!r}")
    with pytest.raises(ValueError, match=message):
        PortfolioSpec(genres=("Drama",), arms=({"Drama": 1},), threshold=threshold)
    doc = {"genres": ["Drama"], "arms": [{"Drama": 1}]}
    with pytest.raises(ValueError, match=message):
        portfolio_from_dict(dict(doc, threshold=threshold), 0.5, 5)
    with pytest.raises(ValueError, match=message):
        portfolio_from_dict(doc, threshold, 5)
    assert portfolio_from_dict(dict(doc, threshold=1), 0.5, 5).threshold == 1.0


def test_empirical_means_match_streaming_oracle(tmp_path):
    rng = np.random.default_rng(3)
    rows = []
    values = {1: [], 2: []}
    for i in range(400):
        movie = int(rng.integers(1, 3))
        rating = float(rng.choice([0.5, 1.0, 2.5, 3.0, 4.0, 4.5, 5.0]))
        values[movie].append(rating)
        rows.append(f"{i},{movie},{rating},{i}")
    movies = ["1,A,Drama", "2,B,Drama"]
    ratings_path, movies_path = write_corpus(tmp_path, rows, movies)
    corpus = parse_corpus(ratings_path, movies_path)
    spec = PortfolioSpec(
        genres=("Drama",), arms=({"Drama": 1}, {"Drama": 2}), min_ratings=1
    )
    instance = build_instance(corpus, spec)
    for arm, movie in ((0, 1), (1, 2)):
        # Second-pass oracle: running mean accumulated one rating at a time.
        mean = 0.0
        for n, v in enumerate(values[movie], start=1):
            mean += (v / 5.0 - mean) / n
        assert instance.attribute_means[arm, 0] == pytest.approx(mean, rel=1e-12)


def test_instance_insensitive_to_row_order(tmp_path):
    rng = np.random.default_rng(5)
    rows = [
        f"{i},1,{float(rng.choice([1.0, 3.0, 5.0]))},{i}" for i in range(50)
    ]
    shuffled = list(rows)
    rng.shuffle(shuffled)
    spec = PortfolioSpec(genres=("Drama",), arms=({"Drama": 1},), min_ratings=1)
    instances = []
    for idx, ordering in enumerate((rows, shuffled)):
        r, m = write_corpus(tmp_path, ordering, ["1,A,Drama"], name=f"v{idx}")
        instances.append(build_instance(parse_corpus(r, m), spec))
    assert (
        instances[0].attribute_means[0, 0] == instances[1].attribute_means[0, 0]
    )


def test_support_lies_in_normalized_range(tmp_path):
    ratings, movies = _corpus_with_counts(tmp_path, {1: 20}, rating=0.5)
    corpus = parse_corpus(ratings, movies)
    spec = PortfolioSpec(genres=("Drama",), arms=({"Drama": 1},), min_ratings=1)
    instance = build_instance(corpus, spec)
    values = instance.arms[0][0].values
    assert min(values) >= 0.1 and max(values) <= 1.0


# ---------------------------------------------------------------------------
# Automatic portfolio selection
# ---------------------------------------------------------------------------


def _auto_corpus(tmp_path):
    # 15 movies across 5 genres, 3 per genre, all with 6 ratings each.
    genres = ["Comedy", "Action", "Drama", "Horror", "Western"]
    movies = []
    rows = []
    movie_id = 1
    for genre in genres:
        for _ in range(3):
            movies.append(f"{movie_id},Film {movie_id},{genre}")
            rows.extend(f"{u},{movie_id},4.0,{u}" for u in range(6))
            movie_id += 1
    return write_corpus(tmp_path, rows, movies)


def test_auto_select_forced_partition(tmp_path):
    ratings, movies = _auto_corpus(tmp_path)
    corpus = parse_corpus(ratings, movies)
    spec = auto_select_portfolios(
        corpus, num_arms=3, num_attributes=5, min_ratings=5, seed=4
    )
    assert len(spec.arms) == 3
    assert len(spec.genres) == 5
    used = [movie for arm in spec.arms for movie in arm.values()]
    assert len(set(used)) == 15  # every eligible movie used exactly once


def test_auto_select_deterministic(tmp_path):
    ratings, movies = _auto_corpus(tmp_path)
    corpus = parse_corpus(ratings, movies)
    a = auto_select_portfolios(corpus, 3, 5, min_ratings=5, seed=4)
    b = auto_select_portfolios(corpus, 3, 5, min_ratings=5, seed=4)
    assert a == b


def test_auto_select_too_few_genres(tmp_path):
    rows = [f"{u},1,4.0,{u}" for u in range(5)]
    ratings, movies = write_corpus(
        tmp_path, rows, ["1,Only,Comedy|Drama|Action|Horror"]
    )
    corpus = parse_corpus(ratings, movies)
    with pytest.raises(ValueError, match="genres"):
        auto_select_portfolios(corpus, 1, 5, min_ratings=1)


def test_auto_select_too_few_movies(tmp_path):
    ratings, movies = _auto_corpus(tmp_path)
    corpus = parse_corpus(ratings, movies)
    with pytest.raises(ValueError, match="fewer than"):
        auto_select_portfolios(corpus, 4, 5, min_ratings=5)


# ---------------------------------------------------------------------------
# Reference portfolio surrogate
# ---------------------------------------------------------------------------


def test_reference_portfolios_resolve_by_title(tmp_path):
    # A corpus carrying the 15 reference titles, each with ratings pinned to
    # its published mean, must reproduce the surrogate's ground truth through
    # the full title-resolution + ingestion path.
    from fcsr.movielens import (
        TABLE1_ATTRIBUTE_MEANS,
        TABLE1_GENRES,
        table1_portfolio_spec,
        table1_portfolio_titles,
    )
    import dataclasses

    titles = table1_portfolio_titles()
    movies_rows = []
    ratings_rows = []
    movie_id = 0
    user = 0
    for arm, title_map in enumerate(titles):
        for j, genre in enumerate(TABLE1_GENRES):
            movie_id += 1
            title = title_map[genre]
            quoted = f'"{title}"' if "," in title else title
            movies_rows.append(f"{movie_id},{quoted},{genre}")
            stars = TABLE1_ATTRIBUTE_MEANS[arm][j] * 5.0
            for _ in range(10):
                user += 1
                ratings_rows.append(f"{user},{movie_id},{stars},{user}")
    ratings_path, movies_path = write_corpus(tmp_path, ratings_rows, movies_rows)
    corpus = parse_corpus(ratings_path, movies_path)
    spec = dataclasses.replace(table1_portfolio_spec(corpus), min_ratings=10)
    instance = build_instance(corpus, spec)
    truth = oracle(instance)
    assert truth.best_arm == 1
    assert truth.feasible_arms == (1,)
    expected = np.asarray(TABLE1_ATTRIBUTE_MEANS)
    assert np.allclose(instance.attribute_means, expected, atol=1e-12)


def test_surrogate_matches_published_truth():
    instance = table1_surrogate_instance()
    truth = oracle(instance)
    assert instance.num_arms == 3
    assert instance.num_attributes == 5
    assert instance.threshold == 0.73
    assert truth.feasible_arms == (1,)
    assert truth.best_arm == 1
    assert instance.arm_labels == ("0", "1", "2")
    # The two shaded portfolios each fail on at least one genre.
    assert instance.attribute_means[1].min() == pytest.approx(0.640)
    assert instance.attribute_means[2].min() == pytest.approx(0.680)
