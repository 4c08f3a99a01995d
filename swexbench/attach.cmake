# Project-include hook that grafts the benchmark onto the simulator's
# own CMake project without editing it. run.py configures the
# repository root with
#
#   -DCMAKE_PROJECT_swex_INCLUDE=<checkout>/swexbench/attach.cmake
#
# so this file runs right after the root project() call. It defers
# reading the benchmark's CMakeLists.txt to the end of the root
# directory, when the simulator's library targets (swex_exp and its
# dependencies) exist and carry the repository's compile flags.
# (Deferred arguments are expanded when the call runs, hence the
# variable.)
set(SWEXBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
    CALL include ${SWEXBENCH_DIR}/CMakeLists.txt)
