#include <stdio.h>

int main(void) {
    int c = 7;
    if (c) {
        c = 6;
    }
    return c;
}
