#!/usr/bin/env bash
# Download the three public directed weighted networks used by the optional
# real-data checks, and normalize them to 3-column TSV edge lists under
# datasets/ (override with BIMIX_DATA_DIR).
#
# The acceptance test verifies each file against its known statistics
# (node count, edge count, weight range), which serves as the integrity
# check:
#   moreno_sampson.tsv     18 nodes,    189 edges, weights in [-1, 1]
#   moreno_highschool.tsv  70 nodes,    366 edges, weights in [0, 2]
#   opsahl_ucsocial.tsv    1302 nodes*, 19044 edges, weights in [0, 98]
#   (* the nodes its edges touch, of the 1899 the source declares)
#
# Record the printed sha256 sums alongside your copy of the data.

set -euo pipefail

DATA_DIR="${BIMIX_DATA_DIR:-datasets}"
mkdir -p "$DATA_DIR"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fetch_konect() {
    local name="$1" url="$2" inner="$3" out="$4"
    curl -fsSL "$url" -o "$TMP/$name.tar.bz2"
    tar -xjf "$TMP/$name.tar.bz2" -C "$TMP"
    # keep source, target, weight; drop comments and any timestamp column
    awk '!/^[%#]/ && NF >= 2 { w = (NF >= 3 ? $3 : 1); print $1 "\t" $2 "\t" w }' \
        "$TMP/$inner" > "$DATA_DIR/$out"
}

fetch_konect moreno_sampson \
    "http://konect.cc/files/download.tsv.moreno_sampson.tar.bz2" \
    "moreno_sampson/out.moreno_sampson_sampson" \
    "moreno_sampson.tsv"

fetch_konect moreno_highschool \
    "http://konect.cc/files/download.tsv.moreno_highschool.tar.bz2" \
    "moreno_highschool/out.moreno_highschool_highschool" \
    "moreno_highschool.tsv"

# Facebook-like social network (message counts); distributed as a plain text
# file with columns: source target weight
curl -fsSL "https://toreopsahl.com/datasets/OCnodeslinks.txt" -o "$TMP/ocnodes.txt" || {
    echo "manual step: download the Facebook-like Social Network (weighted)"
    echo "edge list from https://toreopsahl.com/datasets/#online_social_network"
    echo "and save it as $DATA_DIR/opsahl_ucsocial.tsv (source<TAB>target<TAB>weight)"
    exit 1
}
awk '!/^[%#]/ && NF >= 3 { print $(NF-2) "\t" $(NF-1) "\t" $NF }' \
    "$TMP/ocnodes.txt" > "$DATA_DIR/opsahl_ucsocial.tsv"

sha256sum "$DATA_DIR"/moreno_sampson.tsv "$DATA_DIR"/moreno_highschool.tsv \
    "$DATA_DIR"/opsahl_ucsocial.tsv
echo "done: files in $DATA_DIR/"
